package faults

import (
	"strings"
	"testing"

	"hpcsched/internal/sim"
)

func TestParseEmpty(t *testing.T) {
	for _, s := range []string{"", "  ", "none"} {
		spec, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !spec.Empty() {
			t.Fatalf("Parse(%q) not empty: %+v", s, spec)
		}
	}
}

func TestParseDefaultsAndOverrides(t *testing.T) {
	spec := MustParse("slow:n=3,factor=0.25,dur=2s;stall;loss:core=1;storm:daemons=4;mpidelay:extra=1ms")
	if len(spec.Slowdowns) != 1 || spec.Slowdowns[0].Count != 3 ||
		spec.Slowdowns[0].Factor != 0.25 || spec.Slowdowns[0].Dur != 2*sim.Second ||
		spec.Slowdowns[0].By != 60*sim.Second {
		t.Fatalf("slowdowns = %+v", spec.Slowdowns)
	}
	if len(spec.Stalls) != 1 || spec.Stalls[0].Dur != 250*sim.Millisecond {
		t.Fatalf("stalls = %+v", spec.Stalls)
	}
	if len(spec.CoreLoss) != 1 || spec.CoreLoss[0].Core != 1 {
		t.Fatalf("core loss = %+v", spec.CoreLoss)
	}
	if len(spec.Storms) != 1 || spec.Storms[0].Daemons != 4 || spec.Storms[0].Duty != 0.25 {
		t.Fatalf("storms = %+v", spec.Storms)
	}
	if len(spec.MPIDelays) != 1 || spec.MPIDelays[0].Extra != sim.Millisecond {
		t.Fatalf("mpi delays = %+v", spec.MPIDelays)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"quake:n=1",         // unknown kind
		"slow:bogus=3",      // unknown key
		"slow:factor=1.5",   // factor out of (0,1]
		"slow:factor=zero",  // malformed number
		"storm:duty=1.0",    // duty out of (0,1)
		"slow:dur=-5s",      // negative duration
		"slow:factor",       // malformed pair
		"stall:dur=5parsec", // bad duration unit
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	spec := MustParse("slow:n=4;stall:n=2;loss;storm:n=2;mpidelay:n=3")
	a := Compile(spec, 42, 4)
	for i := 0; i < 10; i++ {
		b := Compile(spec, 42, 4)
		if a.Format() != b.Format() {
			t.Fatalf("same (spec, seed) compiled two timelines:\n%s\n--- vs ---\n%s",
				a.Format(), b.Format())
		}
	}
	c := Compile(spec, 43, 4)
	if a.Format() == c.Format() {
		t.Fatal("different seeds produced an identical fault timeline")
	}
}

func TestCompileZeroFaultIsEmpty(t *testing.T) {
	sc := Compile(Spec{}, 42, 4)
	if !sc.Empty() {
		t.Fatalf("zero spec compiled to %d actions", len(sc.Actions))
	}
	if sc.Format() != "(no faults)" {
		t.Fatalf("empty format = %q", sc.Format())
	}
	if inj := InstallAt(nil, nil, 0, sc); inj != nil {
		t.Fatal("installing an empty schedule returned a live injector")
	}
	var nilSchedule *Schedule
	if !nilSchedule.Empty() {
		t.Fatal("nil schedule not Empty")
	}
}

func TestCompileActionShape(t *testing.T) {
	spec := MustParse("slow:n=2,by=10s;mpidelay:n=1,by=10s")
	sc := Compile(spec, 7, 4)
	if len(sc.Actions) != 6 { // 2 slow pairs + 1 delay pair
		t.Fatalf("got %d actions, want 6:\n%s", len(sc.Actions), sc.Format())
	}
	// Sorted by time, and every onset precedes its recovery.
	on := map[ActionKind]int{}
	for i, a := range sc.Actions {
		if i > 0 && a.At < sc.Actions[i-1].At {
			t.Fatalf("actions out of order:\n%s", sc.Format())
		}
		switch a.Kind {
		case ActSlowOn, ActMPIDelayOn:
			on[a.Kind]++
		case ActSlowOff:
			if on[ActSlowOn] == 0 {
				t.Fatalf("recovery before onset:\n%s", sc.Format())
			}
			on[ActSlowOn]--
		case ActMPIDelayOff:
			if on[ActMPIDelayOn] == 0 {
				t.Fatalf("recovery before onset:\n%s", sc.Format())
			}
			on[ActMPIDelayOn]--
		}
		if a.CPU >= 4 {
			t.Fatalf("action targets CPU %d on a 4-CPU machine", a.CPU)
		}
	}
	if !strings.Contains(sc.Format(), "slow-on") {
		t.Fatalf("format lost the action kinds:\n%s", sc.Format())
	}
}

func TestCompileRespectsPinnedLoss(t *testing.T) {
	spec := Spec{CoreLoss: []CoreLossSpec{{Count: 1, Core: 1, At: 5 * sim.Second}}}
	sc := Compile(spec, 99, 4)
	if len(sc.Actions) != 1 {
		t.Fatalf("actions = %d, want 1", len(sc.Actions))
	}
	a := sc.Actions[0]
	if a.Kind != ActCoreLoss || a.CPU != 1 || a.At != 5*sim.Second {
		t.Fatalf("pinned loss compiled to %+v", a)
	}
}

func TestParseHetero(t *testing.T) {
	spec := MustParse("hetero")
	if len(spec.Hetero) != 1 || spec.Hetero[0].Spread != 0.3 || spec.Hetero[0].Scales != nil {
		t.Fatalf("default hetero = %+v", spec.Hetero)
	}
	spec = MustParse("hetero:spread=0.45")
	if spec.Hetero[0].Spread != 0.45 {
		t.Fatalf("spread = %v", spec.Hetero[0].Spread)
	}
	spec = MustParse("hetero:scales=1/0.8/0.6")
	want := []float64{1, 0.8, 0.6}
	got := spec.Hetero[0].Scales
	if len(got) != len(want) {
		t.Fatalf("scales = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scales = %v, want %v", got, want)
		}
	}
	for _, s := range []string{
		"hetero:spread=1.0",  // spread out of [0,1)
		"hetero:spread=-0.1", // negative spread
		"hetero:scales=0/1",  // scale out of (0,1]
		"hetero:scales=1.5",  // scale above 1
		"hetero:scales=1/x",  // malformed scale
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestCompileHeteroExplicitScales(t *testing.T) {
	sc := Compile(MustParse("hetero:scales=1/0.5"), 1, 4)
	// The profile repeats across contexts; exact 1.0 scales are skipped,
	// so only cpu1 and cpu3 get actions.
	if len(sc.Actions) != 2 {
		t.Fatalf("actions:\n%s", sc.Format())
	}
	for i, a := range sc.Actions {
		if a.Kind != ActHetero || a.At != 0 || a.Factor != 0.5 || a.CPU != 2*i+1 {
			t.Fatalf("action %d = %+v", i, a)
		}
	}
}

func TestCompileHeteroSpreadDraws(t *testing.T) {
	sc := Compile(MustParse("hetero:spread=0.5"), 9, 4)
	if len(sc.Actions) == 0 {
		t.Fatal("no hetero actions drawn")
	}
	for _, a := range sc.Actions {
		if a.Kind != ActHetero || a.At != 0 {
			t.Fatalf("action = %+v", a)
		}
		if a.Factor < 0.5 || a.Factor >= 1 {
			t.Fatalf("factor %v outside [0.5, 1)", a.Factor)
		}
	}
}

// An explicit-scales hetero clause draws nothing from the RNG stream the
// other fault kinds use, so adding one leaves a pre-existing spec's
// transient timeline frozen. (Spread-based hetero does draw — but the
// hetero draws come first, so specs without any hetero clause are
// untouched either way.)
func TestCompileHeteroPreservesLegacyStreams(t *testing.T) {
	legacy := Compile(MustParse("slow:n=2,by=10s;storm:n=1,by=10s;mpidelay:n=1,by=10s"), 42, 4)
	mixed := Compile(MustParse("hetero:scales=1/0.7/0.9/0.6;slow:n=2,by=10s;storm:n=1,by=10s;mpidelay:n=1,by=10s"), 42, 4)
	var rest []string
	for _, a := range mixed.Actions {
		if a.Kind != ActHetero {
			rest = append(rest, a.String())
		}
	}
	if strings.Join(rest, "\n") != legacy.Format() {
		t.Fatalf("hetero clause shifted the legacy timeline:\n%s\n--- vs ---\n%s",
			strings.Join(rest, "\n"), legacy.Format())
	}
}

func TestParseErrorOffsetAndIndicate(t *testing.T) {
	_, err := Parse("slow:n=1; slw:n=2 ;loss")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Clause != "slw:n=2" || pe.Off != 10 {
		t.Fatalf("clause %q at %d", pe.Clause, pe.Off)
	}
	want := "slow:n=1; slw:n=2 ;loss\n          ^^^^^^^"
	if got := pe.Indicate(); got != want {
		t.Fatalf("Indicate:\n%q\nwant:\n%q", got, want)
	}
	if !strings.Contains(pe.Error(), `"slw:n=2"`) {
		t.Fatalf("Error() = %q", pe.Error())
	}
}

func TestFlagValue(t *testing.T) {
	var fv FlagValue
	if err := fv.Set("slow:n=1,by=5s"); err != nil {
		t.Fatal(err)
	}
	if fv.Text != "slow:n=1,by=5s" || len(fv.Spec.Slowdowns) != 1 {
		t.Fatalf("fv = %+v", fv)
	}
	err := fv.Set("slow:n=1;quake")
	if err == nil {
		t.Fatal("bad spec accepted")
	}
	// The message must carry the caret line pointing at the clause.
	if !strings.Contains(err.Error(), "quake") || !strings.Contains(err.Error(), "^^^^^") {
		t.Fatalf("flag error lacks the indicator:\n%s", err)
	}
	// A failed Set leaves the previous value intact.
	if fv.Text != "slow:n=1,by=5s" {
		t.Fatalf("failed Set clobbered the value: %+v", fv)
	}
}
