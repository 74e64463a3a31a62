// Fullchip: train a detector on benchmark clips, then sweep it across an
// entire synthetic chip with the scan farm and verify the flagged
// windows with lithography simulation — the deployment workflow the
// hotspot literature targets.
//
// Run with:
//
//	go run ./examples/fullchip
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	hsd "github.com/golitho/hsd"
)

func main() {
	log.SetFlags(0)

	// Train on a generated benchmark.
	cfg := hsd.SmallSuiteConfig(11)
	cfg.Specs = cfg.Specs[:1]
	suite, err := hsd.GenerateSuite(cfg)
	if err != nil {
		log.Fatal(err)
	}
	det := hsd.StandardAdaBoost()
	if err := det.Fit(hsd.FromSamples(suite.Benchmarks[0].Train.Samples)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %s\n", det.Name())

	// Generate a 32 x 32 um chip and scan it.
	const edge = 32768
	chip, err := hsd.GenerateChip(99, edge, hsd.DefaultPatternStyle())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chip: %d shapes over %.0f x %.0f um\n",
		chip.NumShapes(), float64(edge)/1000, float64(edge)/1000)

	t0 := time.Now()
	res, err := hsd.ScanFarm(context.Background(), chip, det, hsd.ScanFarmConfig{SkipEmpty: true})
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Quarantined) > 0 {
		log.Fatalf("scan quarantined shard %d: %s", res.Quarantined[0].ShardID, res.Quarantined[0].Err)
	}
	scanTime := time.Since(t0)
	// The farm returns findings in row-major window order; the strongest
	// come first here, row-major among equal scores.
	findings := res.Findings
	sort.SliceStable(findings, func(i, j int) bool { return findings[i].Score > findings[j].Score })
	fmt.Printf("scanned %d windows in %v, flagged %d\n\n", res.Windows, scanTime.Round(time.Millisecond), len(findings))

	// Verify the strongest findings with the simulator.
	sim, err := hsd.NewSimulator(hsd.DefaultSimConfig())
	if err != nil {
		log.Fatal(err)
	}
	confirmed := 0
	limit := 10
	if len(findings) < limit {
		limit = len(findings)
	}
	for i := 0; i < limit; i++ {
		f := findings[i]
		clip, err := chip.ClipAt(f.Center, 1024, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Simulate(clip)
		if err != nil {
			log.Fatal(err)
		}
		status := "clean"
		if res.Hotspot {
			confirmed++
			status = fmt.Sprintf("CONFIRMED (%s at %v)", res.Defects[0].Type, res.Defects[0].At)
		}
		fmt.Printf("%2d. window at %v  score=%.3f  %s\n", i+1, f.Center, f.Score, status)
	}
	if limit > 0 {
		fmt.Printf("\nverified precision of top findings: %d/%d\n", confirmed, limit)
	}
}
