// Router: the EPIC-style meta-classifier cascade. Cheap detectors
// (fuzzy pattern matching, then AdaBoost) answer the clips they are
// confident about and escalate the rest to the biased CNN. This example
// evaluates each stage on its own, then the routed cascade, and shows
// how many clips each stage answered.
//
// Run with:
//
//	go run ./examples/router
package main

import (
	"fmt"
	"log"

	hsd "github.com/golitho/hsd"
)

func main() {
	log.SetFlags(0)

	cfg := hsd.SmallSuiteConfig(21)
	cfg.Specs = []hsd.BenchmarkSpec{{
		Name:    "ENS",
		Style:   hsd.DefaultPatternStyle(),
		TrainHS: 40, TrainNHS: 200,
		TestHS: 20, TestNHS: 150,
	}}
	suite, err := hsd.GenerateSuite(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bench := suite.Benchmarks[0]
	train := hsd.FromSamples(bench.Train.Samples)
	test := hsd.FromSamples(bench.Test.Samples)

	evaluate := func(name string, det hsd.Detector, opt hsd.EvalOptions) {
		res, err := hsd.Evaluate(det, bench.Name, train, test, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %7.1f%% %6d %6.3f\n",
			name, 100*res.Accuracy(), res.FalseAlarms(), res.Confusion.F1())
	}

	// The router's stages, each fitted and evaluated alone.
	fmt.Printf("%-12s %8s %6s %6s\n", "detector", "recall", "FA", "F1")
	evaluate("PM-fuzzy", hsd.StandardFuzzyPM(), hsd.EvalOptions{})
	evaluate("AdaBoost", hsd.StandardAdaBoost(), hsd.EvalOptions{})
	evaluate("CNN-biased", hsd.StandardCNN(21, 0.25, "cnn-biased"),
		hsd.EvalOptions{Augment: hsd.StandardAugment()})

	// The router fits fresh stages itself and augments their split.
	r := hsd.StandardRouter(21)
	evaluate("Router", r, hsd.EvalOptions{})

	fmt.Printf("\n%-12s %8s %9s\n", "stage", "answered", "escalated")
	for _, s := range r.Stats() {
		fmt.Printf("%-12s %8d %9d\n", s.Name, s.Answered(), s.Escalated)
	}
	fmt.Println("\nThe cheap stages answer the clips they are sure of; only the")
	fmt.Println("escalated band pays for the CNN.")
}
