// Command paratrace runs one experiment and writes its trace as a
// Paraver-style .prv file (or an ASCII timeline) to stdout or a file —
// the role PARAVER's trace collection plays in the paper.
//
// When writing .prv to a file, the trace is streamed: records go to disk
// as intervals close (trace.PRVSink), so nothing is retained in memory and
// arbitrarily long runs can be traced. ASCII rendering and stdout output
// need the full history and use the in-memory recorder.
//
// Usage:
//
//	paratrace -workload metbench -mode baseline -o trace.prv
//	paratrace -workload btmz -mode uniform -ascii -width 120
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hpcsched/internal/experiments"
	"hpcsched/internal/sim"
	"hpcsched/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns the
// exit code: 2 for bad flags, an unknown mode or an unknown workload, 1 for
// an output error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paratrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "metbench", "workload name")
	modeName := fs.String("mode", "baseline", "baseline|static|uniform|adaptive|hybrid|policy-only")
	seed := fs.Uint64("seed", 42, "simulation seed")
	out := fs.String("o", "", "output file (default stdout)")
	ascii := fs.Bool("ascii", false, "ASCII timeline instead of .prv")
	byCPU := fs.Bool("bycpu", false, "machine-centric view: one row per CPU (ASCII mode)")
	width := fs.Int("width", 100, "timeline columns (ASCII mode)")
	from := fs.Float64("from", 0, "window start, seconds (ASCII mode)")
	to := fs.Float64("to", 0, "window end, seconds (ASCII mode; 0 = full)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var mode experiments.Mode
	switch strings.ToLower(*modeName) {
	case "baseline", "cfs":
		mode = experiments.ModeBaseline
	case "static":
		mode = experiments.ModeStatic
	case "uniform":
		mode = experiments.ModeUniform
	case "adaptive":
		mode = experiments.ModeAdaptive
	case "hybrid":
		mode = experiments.ModeHybrid
	case "policy-only", "hpconly":
		mode = experiments.ModeHPCOnly
	default:
		fmt.Fprintf(stderr, "unknown mode %q\n", *modeName)
		return 2
	}
	cfg := experiments.Config{Workload: *wl, Mode: mode, Seed: *seed, Trace: true}
	// runErr reports a rejected run: an unknown workload is a usage error.
	runErr := func(err error) int {
		fmt.Fprintln(stderr, err)
		var ue *experiments.UnknownWorkloadError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}

	if !*ascii && !*byCPU && *out != "" {
		// Stream the .prv straight to the output file, which is created
		// only once the run writes to it.
		f := &lazyFile{name: *out}
		sink := trace.NewPRVSink(f)
		cfg.TraceSink = sink
		if _, err := experiments.RunCtx(context.Background(), cfg); err != nil {
			f.close()
			return runErr(err)
		}
		err := sink.Err()
		size := f.size()
		if cerr := f.close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s (%d bytes, streamed)\n", *out, size)
		return 0
	}

	r, err := experiments.RunCtx(context.Background(), cfg)
	if err != nil {
		return runErr(err)
	}
	var body string
	if *ascii || *byCPU {
		opt := trace.RenderOptions{
			Width: *width,
			Prios: mode.UsesHPCClass(),
			From:  sim.Time(*from * float64(sim.Second)),
			To:    sim.Time(*to * float64(sim.Second)),
		}
		rendered := r.Recorder.Render(opt)
		if *byCPU {
			rendered = r.Recorder.RenderByCPU(opt)
		}
		body = fmt.Sprintf("%s / %s — exec %.2fs\n%s",
			*wl, mode, r.ExecTime.Seconds(), rendered)
	} else {
		body = r.Recorder.ExportPRV()
	}
	if *out == "" {
		fmt.Fprint(stdout, body)
		return 0
	}
	if err := os.WriteFile(*out, []byte(body), 0o644); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %s (%d bytes)\n", *out, len(body))
	return 0
}

// lazyFile is an io.WriteSeeker over the named file that creates the file
// on its first write or seek, so a run rejected before it traces anything
// leaves no file behind.
type lazyFile struct {
	name string
	f    *os.File
}

func (l *lazyFile) open() error {
	if l.f != nil {
		return nil
	}
	f, err := os.Create(l.name)
	if err != nil {
		return err
	}
	l.f = f
	return nil
}

func (l *lazyFile) Write(b []byte) (int, error) {
	if err := l.open(); err != nil {
		return 0, err
	}
	return l.f.Write(b)
}

func (l *lazyFile) Seek(offset int64, whence int) (int64, error) {
	if err := l.open(); err != nil {
		return 0, err
	}
	return l.f.Seek(offset, whence)
}

// size returns the file's size, or -1 when unknown.
func (l *lazyFile) size() int64 {
	if l.f != nil {
		if info, err := l.f.Stat(); err == nil {
			return info.Size()
		}
	}
	return -1
}

func (l *lazyFile) close() error {
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}
