package experiments

import (
	"os"
	"testing"

	hsd "github.com/golitho/hsd"
)

func TestRouterFrontierUnknownBench(t *testing.T) {
	s := testSuite(t)
	if _, _, err := RouterFrontier(s, "missing", 1, nil, false); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestRouterFrontierSmoke is the ci.sh router gate (scripts/
// router_smoke.sh): it trains the routed cascade and its members on a
// fixed-seed benchmark and asserts the deterministic half of the
// frontier claim — the router's recall is no worse than the boost-only
// row AND no worse than the deep CNN row, while the deep stage only
// sees the escalated band. Training is seeded, so these quantities are
// identical run to run; wall-clock ODST dominance is reported
// separately by `hsdeval -figures`, because asserting wall time
// here would make CI flaky on loaded boxes.
//
// Gated behind HSD_ROUTER_SMOKE=1 because it trains two CNNs (tens of
// seconds, minutes under -race) on every `go test ./...`.
func TestRouterFrontierSmoke(t *testing.T) {
	if os.Getenv("HSD_ROUTER_SMOKE") == "" {
		t.Skip("set HSD_ROUTER_SMOKE=1 to run the router frontier smoke gate")
	}
	const seed = 909
	cfg := hsd.SmallSuiteConfig(seed)
	cfg.Specs = []hsd.BenchmarkSpec{{
		Name:    "RS1",
		Style:   hsd.DefaultPatternStyle(),
		TrainHS: 40, TrainNHS: 160,
		TestHS: 25, TestNHS: 100,
	}}
	suite, err := hsd.GenerateSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tbl, stats, err := RouterFrontier(suite, "RS1", seed, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	if len(tbl.Rows) != 4 {
		t.Fatalf("frontier rows = %d, want 4", len(tbl.Rows))
	}
	if len(stats) != 3 {
		t.Fatalf("router stage stats = %d, want 3", len(stats))
	}

	// Re-evaluate the rows under comparison from scratch so the
	// assertions read structured results, not rendered strings.
	b := suite.Benchmarks[0]
	train, test := hsd.FromSamples(b.Train.Samples), hsd.FromSamples(b.Test.Samples)
	boost, err := hsd.Evaluate(hsd.StandardAdaBoost(), b.Name, train, test, hsd.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cnn, err := hsd.Evaluate(hsd.StandardCNN(seed, 0.25, "cnn-biased"), b.Name, train, test,
		hsd.EvalOptions{Augment: hsd.StandardAugment()})
	if err != nil {
		t.Fatal(err)
	}
	rt := hsd.StandardRouter(seed)
	router, err := hsd.Evaluate(rt, b.Name, train, test, hsd.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("boost  recall=%.3f fa=%d", boost.Accuracy(), boost.FalseAlarms())
	t.Logf("cnn    recall=%.3f fa=%d", cnn.Accuracy(), cnn.FalseAlarms())
	t.Logf("router recall=%.3f fa=%d", router.Accuracy(), router.FalseAlarms())
	for _, s := range rt.Stats() {
		t.Logf("stage %-10s answered %d (hot %d cold %d) escalated %d",
			s.Name, s.Answered(), s.AnsweredHot, s.AnsweredCold, s.Escalated)
	}

	if router.Accuracy() < boost.Accuracy() {
		t.Errorf("router recall %.3f below boost-only %.3f",
			router.Accuracy(), boost.Accuracy())
	}
	// The dominance condition of the frontier claim: recall no worse
	// than the deep row the router escalates to. Its ODST half (deep
	// stage runs on a fraction of clips → lower cost) is measured by
	// chunk G, not asserted against wall time here.
	if router.Accuracy() < cnn.Accuracy() {
		t.Errorf("router recall %.3f below deep-row %.3f",
			router.Accuracy(), cnn.Accuracy())
	}
	// The point of routing: the deep stage must see only the uncertain
	// band, not the whole test split.
	st := rt.Stats()
	deep := st[len(st)-1].Answered()
	if total := int64(len(test)); deep >= total {
		t.Errorf("deep stage answered %d of %d clips — nothing routed early", deep, total)
	}
}
