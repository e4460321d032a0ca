package main

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFlagTableMatchesDocs keeps docs/API.md's flag table in step with
// the flags newFlagSet registers: every flag has a row and every row a
// flag.
func TestFlagTableMatchesDocs(t *testing.T) {
	var cfg config
	var registered []string
	newFlagSet(&cfg).VisitAll(func(f *flag.Flag) {
		registered = append(registered, f.Name)
	})

	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `-([a-z-]+)` \\|")
	var documented []string
	inTable := false
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "| Flag |") {
			inTable = true
			continue
		}
		if inTable && !strings.HasPrefix(line, "|") {
			break
		}
		if m := row.FindStringSubmatch(line); inTable && m != nil {
			documented = append(documented, m[1])
		}
	}

	slices.Sort(registered)
	slices.Sort(documented)
	if !slices.Equal(registered, documented) {
		t.Fatalf("seqverd flags %v\ndocs/API.md flag table %v", registered, documented)
	}
}
