// Package experiments regenerates every table and figure of the
// reconstructed evaluation plan (see DESIGN.md §3). cmd/hsdeval prints
// them; the tests here check their shape.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	hsd "github.com/golitho/hsd"
)

// Table is a printable experiment artifact.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func dur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// BenchStats regenerates Table I: per-benchmark sample statistics.
func BenchStats(suite *hsd.Suite) Table {
	t := Table{
		Title:  "Table I: benchmark statistics (synthetic ICCAD-2012-style suite)",
		Header: []string{"bench", "train HS", "train NHS", "test HS", "test NHS", "imbalance", "avg PVband(nm^2)"},
	}
	for _, b := range suite.Benchmarks {
		trHS, trNHS := b.Train.Counts()
		teHS, teNHS := b.Test.Counts()
		var pv float64
		n := 0
		for _, s := range b.Train.Samples {
			pv += s.PVBandArea
			n++
		}
		if n > 0 {
			pv /= float64(n)
		}
		imb := "-"
		if trHS > 0 {
			imb = fmt.Sprintf("1:%.1f", float64(trNHS)/float64(trHS))
		}
		t.Rows = append(t.Rows, []string{
			b.Name,
			fmt.Sprint(trHS), fmt.Sprint(trNHS),
			fmt.Sprint(teHS), fmt.Sprint(teNHS),
			imb, fmt.Sprintf("%.0f", pv),
		})
	}
	return t
}

// DetectorResults holds the per-benchmark outcomes of one detector spec.
type DetectorResults struct {
	Spec    hsd.DetectorSpec
	Results []hsd.EvalResult // one per benchmark, in suite order
}

// RunZoo evaluates the given detector specs across the whole suite,
// returning results grouped by spec. Sim enables ODST measurement.
func RunZoo(suite *hsd.Suite, specs []hsd.DetectorSpec, sim *hsd.Simulator) ([]DetectorResults, error) {
	return RunZooCtx(context.Background(), suite, specs, sim)
}

// RunZooCtx is RunZoo with trace attribution: each evaluation becomes
// an "eval" span (with fit/score/verify children) on the ctx tracer, so
// a -trace run of hsdeval attributes ODST to pipeline stages per
// detector and benchmark.
func RunZooCtx(ctx context.Context, suite *hsd.Suite, specs []hsd.DetectorSpec, sim *hsd.Simulator) ([]DetectorResults, error) {
	out := make([]DetectorResults, 0, len(specs))
	for _, spec := range specs {
		dr := DetectorResults{Spec: spec}
		for _, b := range suite.Benchmarks {
			res, err := hsd.EvaluateCtx(ctx, spec.New(), b.Name,
				hsd.FromSamples(b.Train.Samples), hsd.FromSamples(b.Test.Samples),
				hsd.EvalOptions{Sim: sim, Augment: spec.Augment})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s on %s: %w", spec.Name, b.Name, err)
			}
			dr.Results = append(dr.Results, res)
		}
		out = append(out, dr)
	}
	return out, nil
}

// DetectorTable regenerates Table II (shallow) or Table III (deep):
// accuracy / false alarms / ODST per benchmark.
func DetectorTable(title string, suite *hsd.Suite, results []DetectorResults) Table {
	t := Table{Title: title}
	t.Header = []string{"detector"}
	for _, b := range suite.Benchmarks {
		t.Header = append(t.Header,
			b.Name+" acc", b.Name+" FA", b.Name+" ODST")
	}
	t.Header = append(t.Header, "avg acc", "total FA")
	for _, dr := range results {
		row := []string{dr.Spec.Name}
		var accSum float64
		faSum := 0
		for _, r := range dr.Results {
			row = append(row, pct(r.Accuracy()), fmt.Sprint(r.FalseAlarms()), dur(r.ODST()))
			accSum += r.Accuracy()
			faSum += r.FalseAlarms()
		}
		row = append(row, pct(accSum/float64(len(dr.Results))), fmt.Sprint(faSum))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Summary regenerates Table IV: the shallow-vs-deep aggregate with ODST
// speedups over full lithography simulation.
func Summary(results []DetectorResults) Table {
	t := Table{
		Title: "Table IV: shallow vs deep summary",
		Header: []string{"detector", "avg acc", "avg AUC", "total FA",
			"total ODST", "total full-sim", "speedup"},
	}
	for _, dr := range results {
		var acc, auc float64
		fa := 0
		var odst, full time.Duration
		for _, r := range dr.Results {
			acc += r.Accuracy()
			auc += r.AUC
			fa += r.FalseAlarms()
			odst += r.ODST()
			full += r.FullSimTime
		}
		n := float64(len(dr.Results))
		speedup := "-"
		if odst > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(full)/float64(odst))
		}
		t.Rows = append(t.Rows, []string{
			dr.Spec.Name, pct(acc / n), f3(auc / n), fmt.Sprint(fa),
			dur(odst), dur(full), speedup,
		})
	}
	return t
}

// ROCFig regenerates Fig. 2: TPR at fixed FPR operating points for each
// detector on one benchmark (a printable ROC comparison).
func ROCFig(suite *hsd.Suite, benchName string, results []DetectorResults) (Table, error) {
	bi := -1
	for i, b := range suite.Benchmarks {
		if b.Name == benchName {
			bi = i
			break
		}
	}
	if bi < 0 {
		return Table{}, fmt.Errorf("experiments: benchmark %q not in suite", benchName)
	}
	fprGrid := []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5}
	t := Table{
		Title:  fmt.Sprintf("Fig. 2: ROC on %s (TPR at fixed FPR)", benchName),
		Header: []string{"detector", "AUC"},
	}
	for _, f := range fprGrid {
		t.Header = append(t.Header, fmt.Sprintf("TPR@%.0f%%", 100*f))
	}
	for _, dr := range results {
		r := dr.Results[bi]
		pts, auc, err := hsd.ROC(r.Scores, r.Labels)
		if err != nil {
			// Degenerate scores (e.g. empty PM library): report dashes.
			row := []string{dr.Spec.Name, "-"}
			for range fprGrid {
				row = append(row, "-")
			}
			t.Rows = append(t.Rows, row)
			continue
		}
		row := []string{dr.Spec.Name, f3(auc)}
		for _, f := range fprGrid {
			row = append(row, f3(tprAt(pts, f)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// tprAt returns the highest TPR achievable at FPR <= limit.
func tprAt(pts []hsd.ROCPoint, limit float64) float64 {
	best := 0.0
	for _, p := range pts {
		if p.FPR <= limit && p.TPR > best {
			best = p.TPR
		}
	}
	return best
}

// BiasSweep regenerates Fig. 3: CNN accuracy and false alarms as the
// biased-learning epsilon grows.
func BiasSweep(suite *hsd.Suite, benchName string, seed int64, epss []float64) (Table, error) {
	b, err := findBench(suite, benchName)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  fmt.Sprintf("Fig. 3: biased-learning sweep on %s", benchName),
		Header: []string{"bias eps", "accuracy", "false alarms", "precision", "F1"},
	}
	train, test := hsd.FromSamples(b.Train.Samples), hsd.FromSamples(b.Test.Samples)
	for _, eps := range epss {
		det := hsd.StandardCNN(seed, eps, fmt.Sprintf("cnn-e%.2f", eps))
		res, err := hsd.Evaluate(det, b.Name, train, test,
			hsd.EvalOptions{Augment: hsd.StandardAugment()})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", eps), pct(res.Accuracy()),
			fmt.Sprint(res.FalseAlarms()), f3(res.Confusion.Precision()),
			f3(res.Confusion.F1()),
		})
	}
	return t, nil
}

// ImbalanceSweep regenerates Fig. 4: CNN accuracy vs minority upsampling
// factor (with and without mirror augmentation at factor 4).
func ImbalanceSweep(suite *hsd.Suite, benchName string, seed int64, factors []int) (Table, error) {
	b, err := findBench(suite, benchName)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  fmt.Sprintf("Fig. 4: imbalance ablation on %s", benchName),
		Header: []string{"upsample", "mirror", "accuracy", "false alarms", "F1"},
	}
	train, test := hsd.FromSamples(b.Train.Samples), hsd.FromSamples(b.Test.Samples)
	run := func(factor int, mirror bool) error {
		det := hsd.StandardCNN(seed, 0.25, fmt.Sprintf("cnn-u%d", factor))
		res, err := hsd.Evaluate(det, b.Name, train, test, hsd.EvalOptions{
			Augment: hsd.AugmentConfig{UpsampleFactor: factor, Mirror: mirror},
		})
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(factor), fmt.Sprint(mirror), pct(res.Accuracy()),
			fmt.Sprint(res.FalseAlarms()), f3(res.Confusion.F1()),
		})
		return nil
	}
	for _, f := range factors {
		if err := run(f, false); err != nil {
			return Table{}, err
		}
	}
	if err := run(4, true); err != nil {
		return Table{}, err
	}
	return t, nil
}

// ODSTScaling regenerates Fig. 5: detection cost vs chip area for a
// trained detector against full lithography simulation of every window.
func ODSTScaling(suite *hsd.Suite, seed int64, edgesNM []int) (Table, error) {
	if len(suite.Benchmarks) == 0 {
		return Table{}, fmt.Errorf("experiments: empty suite")
	}
	b := suite.Benchmarks[0]
	det := hsd.StandardAdaBoost()
	if err := det.Fit(hsd.FromSamples(b.Train.Samples)); err != nil {
		return Table{}, err
	}
	sim, err := hsd.NewSimulator(hsd.DefaultSimConfig())
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title: "Fig. 5: ODST scaling with layout area (AdaBoost vs full simulation)",
		Header: []string{"chip edge (um)", "windows", "flagged",
			"scan time", "verify time", "ODST", "full-sim time", "speedup"},
	}
	for _, edge := range edgesNM {
		chip, err := hsd.GenerateChip(seed, edge, hsd.DefaultPatternStyle())
		if err != nil {
			return Table{}, err
		}
		t0 := time.Now()
		findings, err := hsd.Scan(chip, det, hsd.ScanConfig{SkipEmpty: true})
		if err != nil {
			return Table{}, err
		}
		scanTime := time.Since(t0)

		// Verify flagged windows with the simulator.
		t1 := time.Now()
		for _, f := range findings {
			clip, err := chip.ClipAt(f.Center, 1024, 0.5)
			if err != nil {
				return Table{}, err
			}
			if _, err := sim.Simulate(clip); err != nil {
				return Table{}, err
			}
		}
		verifyTime := time.Since(t1)

		// Full simulation baseline: simulate a sample of windows and
		// extrapolate (simulating everything at large edges would defeat
		// the point of the figure).
		stride := 512
		nWindows := (edge/stride + 1) * (edge/stride + 1)
		const probeN = 16
		t2 := time.Now()
		probed := 0
		for i := 0; i < probeN; i++ {
			cx := 512 + (i*edge/probeN/stride)*stride
			clip, err := chip.ClipAt(hsd.Pt(cx, 512+cx%1024), 1024, 0.5)
			if err != nil {
				return Table{}, err
			}
			if _, err := sim.Simulate(clip); err != nil {
				return Table{}, err
			}
			probed++
		}
		fullSim := time.Since(t2) / time.Duration(probed) * time.Duration(nWindows)

		odst := scanTime + verifyTime
		speedup := "-"
		if odst > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(fullSim)/float64(odst))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", float64(edge)/1000), fmt.Sprint(nWindows),
			fmt.Sprint(len(findings)), dur(scanTime), dur(verifyTime),
			dur(odst), dur(fullSim), speedup,
		})
	}
	return t, nil
}

// Convergence regenerates Fig. 6: CNN training loss and accuracy per epoch.
func Convergence(suite *hsd.Suite, benchName string, seed int64) (Table, error) {
	b, err := findBench(suite, benchName)
	if err != nil {
		return Table{}, err
	}
	det := hsd.StandardCNN(seed, 0.25, "cnn-conv")
	_, err = hsd.Evaluate(det, b.Name,
		hsd.FromSamples(b.Train.Samples), hsd.FromSamples(b.Test.Samples),
		hsd.EvalOptions{Augment: hsd.StandardAugment()})
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  fmt.Sprintf("Fig. 6: CNN training convergence on %s", benchName),
		Header: []string{"epoch", "loss", "train acc"},
	}
	for _, e := range det.History() {
		t.Rows = append(t.Rows, []string{fmt.Sprint(e.Epoch), fmt.Sprintf("%.4f", e.Loss), f3(e.Acc)})
	}
	return t, nil
}

// FrontierRow is one accuracy-vs-ODST operating point of the router
// frontier. DeepFrac is the fraction of test clips the deep stage
// answered (-1 for non-router rows).
type FrontierRow struct {
	Name        string
	Recall      float64
	FalseAlarms int
	AUC         float64
	ODST        time.Duration
	DeepFrac    float64
}

// RouterFrontierRows evaluates each cascade member alone on one
// benchmark against the Router that unifies them (EPIC-style
// meta-classification; DESIGN.md §15). The frontier claim is dominance:
// the router holds the deep detector's recall while the deep stage only
// sees the uncertain band, so its ODST lands below the member it
// matches. The returned stage stats are the default router's test-split
// routing breakdown (one entry per stage).
//
// With extended=true two more operating points join the sweep: the
// unbiased CNN zoo row, and the router re-fit at a looser per-stage
// error budget (eps=0.05), which trades a slice of the escalated band
// for ODST and is the point that strictly dominates the unbiased CNN
// row on B1 (better recall at lower ODST).
func RouterFrontierRows(suite *hsd.Suite, benchName string, seed int64, sim *hsd.Simulator, extended bool) ([]FrontierRow, []hsd.RouterStageStats, error) {
	b, err := findBench(suite, benchName)
	if err != nil {
		return nil, nil, err
	}
	train, test := hsd.FromSamples(b.Train.Samples), hsd.FromSamples(b.Test.Samples)
	type frontierCase struct {
		name string
		det  hsd.Detector
		aug  hsd.AugmentConfig
	}
	cases := []frontierCase{
		{"PM-fuzzy", hsd.StandardFuzzyPM(), hsd.AugmentConfig{}},
		{"AdaBoost", hsd.StandardAdaBoost(), hsd.AugmentConfig{}},
		{"CNN-biased", hsd.StandardCNN(seed, 0.25, "cnn-biased"), hsd.StandardAugment()},
		// The router augments its member-fit split internally, so the
		// evaluation augment stays empty (bands calibrate on real balance).
		{"Router", hsd.StandardRouter(seed), hsd.AugmentConfig{}},
	}
	if extended {
		loose := hsd.StandardRouter(seed)
		loose.SetMaxStageError(0.05)
		cases = append(cases,
			frontierCase{"CNN", hsd.StandardCNN(seed, 0, "cnn"), hsd.StandardAugment()},
			frontierCase{"Router eps=.05", loose, hsd.AugmentConfig{}},
		)
	}
	var rows []FrontierRow
	var stats []hsd.RouterStageStats
	for _, c := range cases {
		res, err := hsd.Evaluate(c.det, b.Name, train, test,
			hsd.EvalOptions{Sim: sim, Augment: c.aug})
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: frontier %s: %w", c.name, err)
		}
		row := FrontierRow{
			Name: c.name, Recall: res.Accuracy(), FalseAlarms: res.FalseAlarms(),
			AUC: res.AUC, ODST: res.ODST(), DeepFrac: -1,
		}
		if rt, ok := c.det.(*hsd.RouterDetector); ok {
			rs := rt.Stats()
			if last := rs[len(rs)-1]; len(test) > 0 {
				row.DeepFrac = float64(last.Answered()) / float64(len(test))
			}
			if c.name == "Router" {
				stats = rs
			}
		}
		rows = append(rows, row)
	}
	return rows, stats, nil
}

// RouterFrontier renders RouterFrontierRows as a printable table.
func RouterFrontier(suite *hsd.Suite, benchName string, seed int64, sim *hsd.Simulator, extended bool) (Table, []hsd.RouterStageStats, error) {
	rows, stats, err := RouterFrontierRows(suite, benchName, seed, sim, extended)
	if err != nil {
		return Table{}, nil, err
	}
	return RenderFrontier(benchName, rows), stats, nil
}

// RenderFrontier renders already-evaluated frontier rows, so callers
// holding RouterFrontierRows output need not re-train the cascade.
func RenderFrontier(benchName string, rows []FrontierRow) Table {
	t := Table{
		Title:  fmt.Sprintf("Router frontier on %s (recall vs ODST)", benchName),
		Header: []string{"detector", "recall", "FA", "AUC", "ODST", "deep-stage clips"},
	}
	for _, r := range rows {
		deepCol := "-"
		if r.DeepFrac >= 0 {
			deepCol = pct(r.DeepFrac)
		}
		t.Rows = append(t.Rows, []string{
			r.Name, pct(r.Recall), fmt.Sprint(r.FalseAlarms),
			f3(r.AUC), dur(r.ODST), deepCol,
		})
	}
	return t
}

func findBench(suite *hsd.Suite, name string) (hsd.Benchmark, error) {
	for _, b := range suite.Benchmarks {
		if b.Name == name {
			return b, nil
		}
	}
	return hsd.Benchmark{}, fmt.Errorf("experiments: benchmark %q not in suite", name)
}

// SplitZoo partitions specs into the shallow (Table II) and deep
// (Table III) groups.
func SplitZoo(specs []hsd.DetectorSpec) (shallow, deep []hsd.DetectorSpec) {
	for _, s := range specs {
		if s.Deep {
			deep = append(deep, s)
		} else {
			shallow = append(shallow, s)
		}
	}
	return shallow, deep
}

// FeatureAblation regenerates the feature-engineering ablation: the same
// AdaBoost learner trained on each feature family alone and on the fused
// view, quantifying how much the hand-crafted CD histograms carry.
func FeatureAblation(suite *hsd.Suite, benchName string) (Table, error) {
	b, err := findBench(suite, benchName)
	if err != nil {
		return Table{}, err
	}
	train, test := hsd.FromSamples(b.Train.Samples), hsd.FromSamples(b.Test.Samples)
	cases := []struct {
		name string
		ex   hsd.FeatureExtractor
	}{
		{"geomstats only", &hsd.GeomStats{}},
		{"density32 only", &hsd.Density{Grid: 32}},
		{"ccas only", &hsd.CCAS{Rings: 8, Sectors: 12}},
		{"fused (all three)", hsd.NewConcatFeatures(
			&hsd.GeomStats{}, &hsd.Density{Grid: 32}, &hsd.CCAS{Rings: 8, Sectors: 12})},
	}
	t := Table{
		Title:  fmt.Sprintf("Ablation A: feature families (AdaBoost on %s)", benchName),
		Header: []string{"features", "dim", "accuracy", "false alarms", "AUC", "F1"},
	}
	for _, c := range cases {
		det := hsd.NewBoostDetector(c.ex, hsd.BoostConfig{Rounds: 150, ClassBalance: true})
		res, err := hsd.Evaluate(det, b.Name, train, test, hsd.EvalOptions{})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			c.name, fmt.Sprint(c.ex.Dim()), pct(res.Accuracy()),
			fmt.Sprint(res.FalseAlarms()), f3(res.AUC), f3(res.Confusion.F1()),
		})
	}
	return t, nil
}

// DCTCoefAblation regenerates the feature-tensor compression ablation:
// CNN quality as the number of retained zigzag DCT coefficients grows.
func DCTCoefAblation(suite *hsd.Suite, benchName string, seed int64, coefs []int) (Table, error) {
	b, err := findBench(suite, benchName)
	if err != nil {
		return Table{}, err
	}
	train, test := hsd.FromSamples(b.Train.Samples), hsd.FromSamples(b.Test.Samples)
	t := Table{
		Title:  fmt.Sprintf("Ablation B: DCT coefficients per block (CNN on %s)", benchName),
		Header: []string{"coefs", "tensor", "accuracy", "false alarms", "AUC"},
	}
	for _, c := range coefs {
		ex := &hsd.DCTFeatures{Blocks: 16, Coefs: c}
		det := hsd.NewCNNDetector(ex,
			hsd.CNNConfig{Conv1: 16, Conv2: 24, Hidden: 48, DropoutP: 0.1, Seed: seed},
			hsd.TrainConfig{Epochs: 16, BatchSize: 32, Seed: seed},
			fmt.Sprintf("cnn-c%d", c))
		det.NoScale = true
		res, err := hsd.Evaluate(det, b.Name, train, test,
			hsd.EvalOptions{Augment: hsd.StandardAugment()})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(c), fmt.Sprintf("16x16x%d", c), pct(res.Accuracy()),
			fmt.Sprint(res.FalseAlarms()), f3(res.AUC),
		})
	}
	return t, nil
}
