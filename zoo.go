package hsd

import (
	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/nn"
	"github.com/golitho/hsd/internal/pm"
	"github.com/golitho/hsd/internal/svm"
)

// DetectorSpec names a ready-made detector configuration together with the
// training-set augmentation it is evaluated with. The zoo below is the
// survey's cast of characters with tuned-for-this-repo hyperparameters;
// the benchmark harness and CLI tools share it so every experiment runs
// the same configurations.
type DetectorSpec struct {
	// Name is the row label used in tables.
	Name string
	// Deep marks the CNN-era detectors (Table III vs Table II).
	Deep bool
	// New constructs a fresh detector (no state shared across benchmarks).
	New func() Detector
	// Augment is applied to the training split before fitting.
	Augment AugmentConfig
}

// shallowFeatures is the shared feature view of the shallow learners:
// hand-crafted geometric statistics (the critical-dimension histograms of
// the pre-deep era) fused with a 32 nm density grid and radial CCAS
// sampling.
func shallowFeatures() FeatureExtractor {
	return NewConcatFeatures(
		&GeomStats{},
		&Density{Grid: 32},
		&CCAS{Rings: 8, Sectors: 12},
	)
}

// deepFeatures is the CNN feature tensor: 16x16 blocks of 8 px, first 16
// zigzag DCT coefficients per block (a 16x16x16 tensor).
func deepFeatures() *DCTFeatures { return &DCTFeatures{Blocks: 16, Coefs: 16} }

// standardPM is exact pattern matching with mirror augmentation.
func standardPM() Detector {
	return core.NewPMDetector(pm.Config{GridPx: 32, Tol: 0, Mirror: true})
}

// standardFuzzyPM is Hamming-tolerant pattern matching.
func standardFuzzyPM() Detector {
	return core.NewPMDetector(pm.Config{GridPx: 32, Tol: 36, Mirror: true})
}

// standardSVM is the linear soft-margin SVM with hotspot-weighted C.
func standardSVM(seed int64) Detector {
	return core.NewSVMDetector(shallowFeatures(), svm.Config{
		Kernel: svm.Linear{}, C: 1, PosWeight: 8, Seed: seed, MaxIter: 120,
	})
}

// StandardAdaBoost is class-balanced AdaBoost over decision stumps.
func StandardAdaBoost() Detector {
	return NewBoostDetector(shallowFeatures(), BoostConfig{Rounds: 150, ClassBalance: true})
}

// standardMLP is the shallow neural-network baseline.
func standardMLP(seed int64) Detector {
	return core.NewMLPDetector(shallowFeatures(), []int{64, 32}, TrainConfig{
		Epochs: 40, BatchSize: 32, Seed: seed,
	})
}

// StandardCNN is the feature-tensor CNN with the given biased-learning
// epsilon (0 disables biased learning) and training epochs.
func StandardCNN(seed int64, biasEps float64, label string) *NeuralDetector {
	ex := deepFeatures()
	det := NewCNNDetector(ex,
		CNNConfig{Conv1: 16, Conv2: 24, Hidden: 48, DropoutP: 0.1, Seed: seed},
		TrainConfig{
			Epochs: 16, BatchSize: 32, Seed: seed,
			Loss: nn.SoftmaxCE{BiasEps: biasEps},
		},
		label)
	// DCT tensors are already bounded; standardizing them amplifies
	// near-constant high-frequency channels into noise.
	det.NoScale = true
	return det
}

// StandardAugment is the imbalance treatment of the deep detectors:
// 4x minority upsampling with mirror flips.
func StandardAugment() AugmentConfig {
	return AugmentConfig{UpsampleFactor: 4, Mirror: true}
}

// SurveyZoo returns the survey's detector line-up, shallow to deep.
func SurveyZoo(seed int64) []DetectorSpec {
	return []DetectorSpec{
		{Name: "PM-exact", New: standardPM},
		{Name: "PM-fuzzy", New: standardFuzzyPM},
		{Name: "SVM", New: func() Detector { return standardSVM(seed) }},
		{Name: "AdaBoost", New: StandardAdaBoost},
		{Name: "MLP", New: func() Detector { return standardMLP(seed) },
			Augment: AugmentConfig{UpsampleFactor: 4, Mirror: true}},
		{Name: "CNN", Deep: true,
			New:     func() Detector { return StandardCNN(seed, 0, "cnn") },
			Augment: StandardAugment()},
		{Name: "CNN-biased", Deep: true,
			New:     func() Detector { return StandardCNN(seed, 0.25, "cnn-biased") },
			Augment: StandardAugment()},
		{Name: "CNN-plain", Deep: true,
			New: func() Detector { return StandardCNN(seed, 0, "cnn-plain") }},
	}
}
