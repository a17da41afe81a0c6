// Package spannametest is the spanname analyzer fixture. It imports the
// real timeline package; every Timeline emit call (Span, Instant) is a
// subject.
package spannametest

import "repro/internal/trace"

const (
	goodSpan  = "fixture.span"
	badShape  = "Fixture-Span"
	prefixFam = "fixture.phase."
)

var table = [2]string{goodSpan, "fixture.other"}

func emit(tl *trace.Timeline, kinds []string, i int) {
	tr := trace.CoreTrack(1)
	tl.Instant(tr, goodSpan, 10, 1, 0)
	tl.Span(tr, badShape, 10, 20, 1, 0)        // want `span name "Fixture-Span" does not match`
	tl.Instant(tr, "fixture.inline", 10, 1, 0) // want `must be \(or start with\) a package-level const`
	const local = "fixture.local"
	tl.Instant(tr, local, 10, 1, 0) // want `must be declared at package level`
	for _, k := range kinds {
		tl.Span(tr, prefixFam+k, 10, 20, 1, 0)
	}
	//lint:allow spanname the table is const-initialized
	tl.Instant(tr, table[i], 10, 1, 0)
}
