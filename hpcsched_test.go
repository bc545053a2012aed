package hpcsched_test

import (
	"strings"
	"testing"

	"hpcsched"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	rec := hpcsched.NewRecorder()
	m := hpcsched.NewMachine(hpcsched.MachineConfig{
		Seed:   1,
		HPC:    &hpcsched.HPCConfig{Heuristic: hpcsched.Uniform},
		Tracer: rec,
	})
	if m.HPC == nil || m.Kernel == nil || m.Chip == nil {
		t.Fatal("machine incomplete")
	}
	w := m.NewWorld(2)
	for i := 0; i < 2; i++ {
		i := i
		w.Spawn(i, hpcsched.TaskSpec{Policy: hpcsched.PolicyHPC, Affinity: 1 << uint(i)},
			func(r *hpcsched.Rank) {
				for it := 0; it < 6; it++ {
					if i == 0 {
						r.Compute(20 * hpcsched.Millisecond)
						r.Recv(1, it)
						r.Send(1, it, 64)
					} else {
						r.Compute(80 * hpcsched.Millisecond)
						r.Send(0, it, 64)
						r.Recv(0, it)
					}
				}
			})
	}
	end := m.Run(30 * hpcsched.Second)
	if end >= 30*hpcsched.Second {
		t.Fatal("job did not finish")
	}
	sums := hpcsched.Summaries(w.Tasks(), end)
	if len(sums) != 2 {
		t.Fatal("summaries missing")
	}
	if sums[1].HWPrio != int(hpcsched.PrioHigh) {
		t.Errorf("heavy rank priority = %d, want 6", sums[1].HWPrio)
	}
	rec.Finish(end)
	if out := rec.Render(hpcsched.RenderOptions{Width: 60}); !strings.Contains(out, "#") {
		t.Error("trace render empty")
	}
}

func TestFacadeDefaults(t *testing.T) {
	m := hpcsched.NewMachine(hpcsched.MachineConfig{Seed: 2})
	if m.HPC != nil {
		t.Error("HPC class installed without being requested")
	}
	if m.Chip.NumCPUs() != 4 {
		t.Errorf("default machine has %d CPUs, want 4", m.Chip.NumCPUs())
	}
	if got := len(m.Kernel.Classes()); got != 3 {
		t.Errorf("default class count = %d, want 3 (rt, fair, idle)", got)
	}
	p := hpcsched.DefaultHPCParams()
	if p.HighUtil != 85 || p.LowUtil != 65 || p.MinPrio != 4 || p.MaxPrio != 6 {
		t.Errorf("default params drifted: %+v", p)
	}
}

func TestFacadeSilentNoise(t *testing.T) {
	m := hpcsched.NewMachine(hpcsched.MachineConfig{Seed: 3, Noise: &hpcsched.SilentNoise})
	w := m.NewWorld(1)
	w.Spawn(0, hpcsched.TaskSpec{}, func(r *hpcsched.Rank) {
		r.Compute(10 * hpcsched.Millisecond)
	})
	end := m.Run(hpcsched.Second)
	// No daemons: only the rank ever runs.
	if got := len(m.Kernel.Tasks()); got != 1 {
		t.Errorf("task count = %d with silent noise, want 1", got)
	}
	if end >= hpcsched.Second {
		t.Error("run did not complete")
	}
}

func TestFacadeHeuristicsExported(t *testing.T) {
	for _, h := range []hpcsched.Heuristic{hpcsched.Uniform, hpcsched.Adaptive,
		hpcsched.Hybrid, hpcsched.Fixed} {
		if h.Name() == "" {
			t.Error("heuristic without name")
		}
	}
	if len(hpcsched.Workloads()) != 5 {
		t.Errorf("Workloads() = %v", hpcsched.Workloads())
	}
}

func TestFacadeCustomCores(t *testing.T) {
	m := hpcsched.NewMachine(hpcsched.MachineConfig{Seed: 4, Cores: 4})
	if m.Chip.NumCPUs() != 8 {
		t.Errorf("4-core machine has %d CPUs", m.Chip.NumCPUs())
	}
	w := m.NewWorld(8)
	for i := 0; i < 8; i++ {
		w.Spawn(i, hpcsched.TaskSpec{}, func(r *hpcsched.Rank) {
			r.Compute(20 * hpcsched.Millisecond)
			r.Barrier()
		})
	}
	if end := m.Run(10 * hpcsched.Second); end >= 10*hpcsched.Second {
		t.Fatal("8-rank job deadlocked on the 8-CPU machine")
	}
}
