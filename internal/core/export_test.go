package core

import "seqver/internal/cec"

// Miter exposes the joint AIG to the external tests.
func (u *Unrolled) Miter() *cec.Miter { return u.miter }
