package netlist

import (
	"strings"
	"testing"
)

// FuzzParseBLIF asserts the parser never panics, that anything it
// accepts survives a write/re-parse round trip, and that it accepts and
// builds exactly what the reference reader (referenceParseBLIF, logical
// lines split with strings.Fields) does: the same accept or reject, and
// the same WriteBLIF bytes for anything both accept.
func FuzzParseBLIF(f *testing.F) {
	f.Add(toyBLIF)
	f.Add(".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.end\n")
	f.Add(".model m\n.inputs d e\n.outputs q\n.latch d q le e 3\n.end\n")
	f.Add(".model m\n.outputs o\n.names o\n1\n.end\n")
	f.Add(".model m\n.inputs a\n.outputs o\n.names a o\n0 0\n.end")
	// Comments and continuations, a continuation into a comment line,
	// and one left open at the end of the source.
	f.Add("# header\n\n.model m # c\n.inputs a \\\n b # c\n.outputs \\\n# only a comment\no\n.names a b \\\n  o\n1- 1\n-1 1\n.end\n")
	f.Add(".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.names \\")
	f.Add(".model m\n.inputs a\\\n\\\nb\n.outputs o\n.names a\\ b o\\\n\n11 1\n")
	// CRLF line endings and tabs.
	f.Add(".model m\r\n.inputs\ta\tb\r\n.outputs o\r\n.names a b o \\\r\n\r\n01 1\r\n.end\r\n")
	// Unicode spaces inside a line: U+00A0 and U+3000 split fields only
	// where strings.Fields splits them.
	f.Add(".model m\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end\n")
	f.Add(".model m\n.inputs a　b\n.outputs o\n.names a　b o \\\n\n11 1\n.end\n")
	// .end in the middle of the file: the rest is never read.
	f.Add(".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.end\n.names a o\nbad row here\n.junk\n")
	f.Add(".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.end \\\n.names a p\n")
	// Offset covers and a .names with no fanins.
	f.Add(".model m\n.inputs a b\n.outputs o p q\n.names a b o\n00 0\n11 0\n.names p\n.names q\n0\n.end\n")
	f.Add(".model m\n.inputs a b\n.outputs o\n.names a b o\n0- 0\n-1 1\n.end\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseBLIFString(src)
		ref, refErr := referenceParseBLIF(src)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ParseBLIF err = %v, reference err = %v\nsource:\n%q", err, refErr, src)
		}
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteBLIF(&sb, c); err != nil {
			t.Fatalf("accepted circuit failed to write: %v", err)
		}
		if want := ref.String(); sb.String() != want {
			t.Fatalf("ParseBLIF and the reference built different circuits\nsource:\n%q\ngot:\n%s\nreference:\n%s", src, sb.String(), want)
		}
		if _, err := ParseBLIFString(sb.String()); err != nil {
			t.Fatalf("round trip failed: %v\noriginal:\n%s\nwritten:\n%s", err, src, sb.String())
		}
	})
}
