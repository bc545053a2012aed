package faults

import (
	"errors"
	"testing"
)

// FuzzParse: any input either parses or fails with a *ParseError whose
// Off and Clause point at the offending clause of Spec — never a panic,
// never a position outside the input. The corpus seeds are the specs the
// README and the selector grid use, plus a few malformed neighbours.
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 20s ./internal/faults
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"",
		"none",
		"slow:n=2,factor=0.5,dur=5s,by=60s;loss:at=30s",
		"storm:n=2,dur=2s,by=60s",
		"hetero:scales=1/0.6/1/0.8;slow:n=2,factor=0.5,dur=5s,by=40s",
		"hetero:spread=0.35",
		"slow:n=2,factor=0.45,dur=6s,by=20s;storm:n=1,dur=5s,by=20s,daemons=2,duty=0.3",
		"hetero:scales=1/0.75/0.9/0.6;stall:n=2,dur=1500ms,by=20s;mpidelay:n=1,extra=300us,dur=8s,by=20s",
		"slow:n=2,factor=0.45,dur=2s,by=6s;storm:n=1,dur=1500ms,by=6s,daemons=2,duty=0.3",
		"hetero:scales=1/0.75/0.9/0.6;stall:n=2,dur=500ms,by=6s;mpidelay:n=1,extra=300us,dur=2s,by=6s",
		"slow:n=1;slw:n=2",
		" ; slow:n=x ;",
		"loss:core=9,at=-1s",
		"hetero:scales=1//0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		_, err := Parse(s)
		if err == nil {
			return
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("Parse(%q) = %v (%T), want a *ParseError", s, err, err)
		}
		if pe.Off < 0 || pe.Off+len(pe.Clause) > len(pe.Spec) ||
			pe.Spec[pe.Off:pe.Off+len(pe.Clause)] != pe.Clause {
			t.Fatalf("Parse(%q): ParseError{Spec: %q, Off: %d, Clause: %q} does not locate its clause",
				s, pe.Spec, pe.Off, pe.Clause)
		}
	})
}
