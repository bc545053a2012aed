package trace

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"hpcsched/internal/sched"
	"hpcsched/internal/sim"
)

// RenderByCPU draws one row per CPU instead of one per task: each column
// shows which task occupied the CPU for most of that bucket, labelled by
// the last character of the task name ('1' for P1, 'M' for the master),
// or '.' when idle. This is the machine-centric view PARAVER offers next
// to the per-process one, and it makes placement — who shares a core with
// whom — visible at a glance.
func (r *Recorder) RenderByCPU(opt RenderOptions) string {
	if !opt.window(r.end) {
		return ""
	}
	labels := make([]byte, len(r.tasks))
	for i, tt := range r.tasks {
		labels[i] = '?'
		if n := tt.Name; n != "" {
			labels[i] = n[len(n)-1]
		}
	}
	// One pass over the log: running time per CPU, column and label. Every
	// CPU up to the highest one that ran a task gets a row.
	var weights [][]map[byte]sim.Time
	for e := range r.entries(0, len(r.log)) {
		if sched.State(e.state) != sched.StateRunning || e.cpu < 0 {
			continue
		}
		for int(e.cpu) >= len(weights) {
			weights = append(weights, nil)
		}
		w := weights[e.cpu]
		if w == nil {
			w = make([]map[byte]sim.Time, opt.Width)
			for i := range w {
				w[i] = map[byte]sim.Time{}
			}
			weights[e.cpu] = w
		}
		label := labels[e.task]
		opt.spread(e.from, e.to, func(c int, ov sim.Time) { w[c][label] += ov })
	}
	if len(weights) == 0 {
		weights = make([][]map[byte]sim.Time, 1) // the idle cpu0 row
	}

	var b strings.Builder
	fmt.Fprintf(&b, "        time %v .. %v (1 col = %v)\n", opt.From, opt.To,
		(opt.To-opt.From)/sim.Time(opt.Width))
	row := make([]byte, opt.Width)
	for cpu, w := range weights {
		for c := range row {
			best, bestW := byte('.'), sim.Time(0)
			if w != nil {
				// Deterministic winner: iterate labels in sorted order.
				for _, l := range slices.Sorted(maps.Keys(w[c])) {
					if w[c][l] > bestW {
						best, bestW = l, w[c][l]
					}
				}
			}
			row[c] = best
		}
		core := cpu / 2
		fmt.Fprintf(&b, "cpu%d/c%d |%s|\n", cpu, core, string(row))
	}
	b.WriteString("legend: column = dominant task on the CPU ('.' idle); cN = core\n")
	return b.String()
}
