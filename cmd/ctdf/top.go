package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"time"

	"ctdf"
)

// cmdTop is a live telemetry view: it executes the workload on the
// machine engine in a background loop — the registry accumulates across
// iterations — and repaints the phase breakdown and lane → shard
// traffic matrix at every -refresh tick, the way `top` repaints process
// state. It exits after -duration (0 = until ctrl-c), leaving the final
// table on screen.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	workload := sourceFlags(fs)
	schema, cover, elim, parReads, parStores := translateOptions(fs)
	istructs := istructFlag(fs)
	procs := fs.Int("procs", 0, "processors (0 = unlimited)")
	latency := fs.Int("latency", 1, "split-phase memory latency in cycles")
	workers := fs.Int("workers", 1, "partition the machine's state across N shards")
	binding := fs.String("binding", "", "alias binding, e.g. x=z (x and z share one location)")
	refresh := fs.Duration("refresh", 500*time.Millisecond, "repaint interval")
	duration := fs.Duration("duration", 10*time.Second, "how long to keep running (0 = until ctrl-c)")
	metrics := fs.String("metrics", "", "also serve OpenMetrics at this address while running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := loadSource(fs, *workload)
	if err != nil {
		return err
	}
	p, err := ctdf.Compile(src)
	if err != nil {
		return err
	}
	b, err := parseBinding(*binding)
	if err != nil {
		return err
	}
	opt, err := buildOptions(*schema, *cover, *elim, *parReads, *parStores, *istructs)
	if err != nil {
		return err
	}
	d, err := p.Translate(opt)
	if err != nil {
		return err
	}

	reg := ctdf.NewTelemetry()
	if *metrics != "" {
		srv, err := reg.Serve(*metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics\n", srv.Addr())
	}
	cfg := ctdf.RunConfig{
		Processors: *procs, MemLatency: *latency, Workers: *workers,
		Binding: b, Telemetry: reg,
	}

	// The runner loops the workload until told to stop; each iteration
	// is a fresh simulation feeding the same registry, so the view shows
	// live accumulating totals. runErr carries the first failure out.
	stop := make(chan struct{})
	idle := make(chan struct{})
	var iters atomic.Int64
	var runErr error
	go func() {
		defer close(idle)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := d.Run(cfg); err != nil {
				runErr = err
				return
			}
			iters.Add(1)
		}
	}()

	intr := make(chan os.Signal, 1)
	signal.Notify(intr, os.Interrupt)
	defer signal.Stop(intr)
	var deadline <-chan time.Time
	if *duration > 0 {
		deadline = time.After(*duration)
	}
	if *refresh <= 0 {
		*refresh = 500 * time.Millisecond
	}
	tick := time.NewTicker(*refresh)
	defer tick.Stop()

	paint := func(clear bool) {
		if clear {
			// Home the cursor and wipe the previous frame.
			fmt.Print("\x1b[H\x1b[2J")
		}
		fmt.Printf("ctdf top — schema %s, %d worker(s), %d iteration(s)\n\n", opt.Schema, *workers, iters.Load())
		fmt.Print(reg.Snapshot().PhaseTable())
	}
	running := true
	for running {
		select {
		case <-tick.C:
			paint(true)
		case <-deadline:
			running = false
		case <-intr:
			running = false
		case <-idle:
			running = false
		}
	}
	close(stop)
	<-idle
	paint(false)
	return runErr
}
