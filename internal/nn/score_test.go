package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/golitho/hsd/internal/tensor"
)

// forwardScore is the pre-arena Score: the training path's eval-mode
// Forward, then softmax on a copy. It mutates layer caches, so callers
// hand it a clone when the network is shared.
func forwardScore(t *testing.T, net *Network, x []float64) float64 {
	t.Helper()
	xb, err := tensor.FromSlice(1, len(x), append([]float64(nil), x...))
	if err != nil {
		t.Fatal(err)
	}
	return Probabilities(net.Forward(xb, false))[0]
}

// TestScoreMatchesForward: the arena-backed Score reproduces the
// training-path answer bit for bit on the CNN with BatchNorm, the CNN
// with Dropout and the MLP, and leaves the input untouched.
func TestScoreMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for name, net := range testNetworks(t, 61) {
		for _, x := range randRows(rng, 40, inDim(net)) {
			keep := append([]float64(nil), x...)
			got, want := Score(net, x), forwardScore(t, net, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Score = %v, Forward path = %v", name, got, want)
			}
			for i := range x {
				if x[i] != keep[i] {
					t.Fatalf("%s: Score wrote to its input at %d", name, i)
				}
			}
		}
	}
}

// TestScoreAfterPanicIsClean: a pass that panics mid-network (an input of
// the wrong width trips checkCols after the arena has handed out
// buffers) must return its arena rewound; the next Score on the same
// goroutine, which draws the same arena back from the pool, is right.
func TestScoreAfterPanicIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for name, net := range testNetworks(t, 63) {
		x := randRows(rng, 1, inDim(net))[0]
		want := forwardScore(t, net.Clone(), x)
		for round := 0; round < 3; round++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: a short input did not panic", name)
					}
				}()
				Score(net, x[:len(x)-1])
			}()
			if got := Score(net, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s round %d: Score after a panicked pass = %v, want %v", name, round, got, want)
			}
		}
	}
}

// TestScoreSharedNetworkConcurrent: Score no longer writes to the
// network, so 8 goroutines on one un-cloned Network all get the serial
// answer. Meaningful under -race.
func TestScoreSharedNetworkConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for name, net := range testNetworks(t, 64) {
		x := randRows(rng, 24, inDim(net))
		want := make([]float64, len(x))
		ref := net.Clone()
		for i := range x {
			want[i] = forwardScore(t, ref, x[i])
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range x {
					i := (k + 3*g) % len(x)
					if got := Score(net, x[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("%s goroutine %d sample %d: %v, serial %v", name, g, i, got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestScoreAllocations: in steady state Score draws everything from a
// pooled arena.
func TestScoreAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items on purpose under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // keep the arena on one P's pool shard
	rng := rand.New(rand.NewSource(65))
	for name, net := range testNetworks(t, 65) {
		x := randRows(rng, 1, inDim(net))[0]
		Score(net, x) // first fill
		if allocs := testing.AllocsPerRun(100, func() { Score(net, x) }); allocs > 2 {
			t.Errorf("%s: Score allocates %v objects per call, want <= 2", name, allocs)
		}
	}
}
