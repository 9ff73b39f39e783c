// Command repro regenerates every table and figure of the paper from the
// simulated world and prints them as text reports. With -out it also writes
// each report to a file, which is how EXPERIMENTS.md's measured numbers are
// produced.
//
// Usage:
//
//	repro [-seed N] [-scale F] [-small] [-only T3,F6] [-out DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"anysim/internal/experiments"
	"anysim/internal/worldgen"
)

func main() {
	var (
		seed  = flag.Int64("seed", worldgen.DefaultSeed, "world seed")
		scale = flag.Float64("scale", 1.0, "probe population scale (1.0 = paper counts)")
		small = flag.Bool("small", false, "use the reduced-scale world (quick look)")
		only  = flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
		out   = flag.String("out", "", "directory to write per-experiment report files into")
		dataD = flag.String("data", "", "directory to write plottable TSV series (figure CDFs) into")
	)
	flag.Parse()

	start := time.Now()
	var (
		w   *worldgen.World
		err error
	)
	if *small {
		w, err = worldgen.Small(*seed)
	} else {
		w, err = worldgen.New(worldgen.Config{Seed: *seed, Scale: *scale})
	}
	if err != nil {
		fatalf("building world: %v", err)
	}
	fmt.Printf("world: %d ASes, %d links, %d probes (%d groups), built in %v\n\n",
		w.Topo.NumASes(), len(w.Topo.Links()), len(w.Platform.Retained()),
		len(w.Platform.Groups().Groups), time.Since(start).Round(time.Millisecond))

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}

	ctx := experiments.NewContext(w)
	for _, ex := range experiments.All() {
		if len(want) > 0 && !want[ex.ID] {
			continue
		}
		t0 := time.Now()
		rep, err := ex.Run(ctx)
		if err != nil {
			fatalf("%s: %v", ex.ID, err)
		}
		rep.ID, rep.Title = ex.ID, ex.Title
		fmt.Printf("=== %s — %s (%v)\n%s\n", rep.ID, rep.Title, time.Since(t0).Round(time.Millisecond), rep.Text)
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fatalf("creating %s: %v", *out, err)
			}
			path := filepath.Join(*out, strings.ToLower(rep.ID)+".txt")
			if err := os.WriteFile(path, []byte(rep.FileText()), 0o644); err != nil {
				fatalf("writing %s: %v", path, err)
			}
		}
		if *dataD != "" && len(rep.Series) > 0 {
			if err := writeSeries(*dataD, rep); err != nil {
				fatalf("%v", err)
			}
		}
	}
}

// writeSeries dumps each of the report's curves as a two-column TSV, one
// file per series, ready for gnuplot or any plotting library.
func writeSeries(dir string, rep *experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for file, content := range rep.SeriesFiles() {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "repro: "+format+"\n", args...)
	os.Exit(1)
}
