package main

import (
	"strings"
	"testing"

	"hpcsched/internal/experiments"
)

func TestModeFromName(t *testing.T) {
	for name, ok := range map[string]bool{
		"baseline": true, "cfs": true, "static": true, "uniform": true,
		"adaptive": true, "hybrid": true, "policy-only": true, "hpconly": true,
		"UNIFORM": true, "bogus": false,
	} {
		_, err := experiments.ParseMode(name)
		if (err == nil) != ok {
			t.Errorf("ParseMode(%q) err=%v, want ok=%v", name, err, ok)
		}
	}
}

func TestTableWorkloadMapping(t *testing.T) {
	for cmd, want := range map[string]string{
		"table3": "metbench",
		"fig3":   "metbench",
		"table4": "metbenchvar",
		"table5": "btmz",
		"fig5":   "btmz",
		"table6": "siesta",
		"fig6":   "siesta",
	} {
		if got := tableWorkload(cmd); got != want {
			t.Errorf("tableWorkload(%q) = %q, want %q", cmd, got, want)
		}
	}
}

func TestValidationVerdict(t *testing.T) {
	checks := make([]experiments.Check, 20)
	for i := 0; i < 18; i++ {
		checks[i].Pass = true // 18/20 = 90%
	}
	for _, tc := range []struct {
		minPass int
		fail    string
	}{
		{0, ""}, {18, ""}, {19, "-min-pass floor of 19"},
	} {
		err := validationVerdict(checks, tc.minPass)
		if tc.fail == "" && err != nil {
			t.Errorf("min-pass %d: %v, want pass", tc.minPass, err)
		}
		if tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)) {
			t.Errorf("min-pass %d: %v, want an error containing %q", tc.minPass, err, tc.fail)
		}
	}
	checks[17].Pass, checks[16].Pass = false, false // 16/20 = 80%
	if err := validationVerdict(checks, 0); err == nil || !strings.Contains(err.Error(), "85%") {
		t.Errorf("80%% pass rate: %v, want the 85%% error", err)
	}
}
