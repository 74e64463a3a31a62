package tensor

// parallelMinWork is the multiply-add count below which the parallel
// matmul entry points run sequentially. Handing a shard to a pool worker
// costs about 8 µs, which the assembly kernel fills with ~10^5
// multiply-adds, and a second core adds only about a third to its rate
// on the bench box; BenchmarkParallelMatMul puts the break-even at 2^21
// (1M: 80 µs sharded against 74 serial; 2M: 124-171 against 160; 4M: 270
// against 300). It was 2^16 for the 3 MAC/ns scalar loop.
const parallelMinWork = 1 << 21

// parallelMinRows is the smallest row-shard the parallel matmuls will
// hand to the pool: two of the kernel's four-row groups. Every shard
// streams all of b, so a shard of one group gets half the reuse of b for
// its traffic and loses to the serial call outright (8x512x512 in two
// 4-row shards: 400 µs against 215); at 8 rows sharding breaks even or
// wins (16x256x512: 134 against 160).
const parallelMinRows = 8

// ParallelMatMulInto computes dst = a * b with rows sharded over the
// process-wide persistent worker pool (see Pool). Results are
// bit-identical to MatMulInto for any pool size: each dst row is owned
// by exactly one shard and is accumulated in the same order as the
// serial kernel.
func ParallelMatMulInto(dst, a, b *Matrix) {
	ParallelMatMulIntoWorkers(dst, a, b, 0)
}

// ParallelMatMulIntoWorkers is ParallelMatMulInto with an explicit bound
// on shard count, for tests and callers that manage their own
// parallelism budget. workers <= 0 means the pool's full width, and
// products too small to pay for the handoff (see parallelMinWork) then
// run on the sequential kernel; a caller that names a count has made
// that decision itself and is held only to the parallelMinRows grain,
// which is how the equivalence tests reach the sharded path at sizes
// far below the threshold.
func ParallelMatMulIntoWorkers(dst, a, b *Matrix, workers int) {
	checkMatMulShapes(dst, a, b)
	shards := matMulShards(a.Rows, a.Cols, b.Cols, workers)
	if shards <= 1 {
		matMulRows(dst, a, b, 0, a.Rows)
		return
	}
	Default().Run(a.Rows, shards, func(r0, r1 int) {
		matMulRows(dst, a, b, r0, r1)
	})
}

// matMulShards sizes the shard count for an m x k x n product: the
// requested worker budget, or for 0 the pool width, dropped to 1 when
// the product is too small to amortize the handoff; either way bounded
// by the row count at parallelMinRows grain.
func matMulShards(m, k, n, workers int) int {
	shards := workers
	if shards <= 0 {
		if m*k*n < parallelMinWork {
			return 1
		}
		shards = Default().Workers() + 1
	}
	if byRows := m / parallelMinRows; shards > byRows {
		shards = byRows
	}
	if shards > m {
		shards = m
	}
	return shards
}
