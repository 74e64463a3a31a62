package tensor

// parallelMinWork is the multiply-add count below which the parallel
// matmul entry points run sequentially: under ~64k flops the shard
// handoff costs more than the arithmetic it would hide.
const parallelMinWork = 1 << 16

// parallelMinRows is the smallest row-shard the parallel matmuls will
// hand to the pool. Coarser shards mean fewer channel operations per
// call; dst rows are uniform work, so load balance does not need finer
// grain than a handful of shards per executor.
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
// parallelism budget. workers <= 0 means the pool's full width; tiny
// products (see parallelMinWork) and single-row outputs fall back to
// the sequential kernel.
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

// matMulShards sizes the shard count for an m x k x n product: bounded
// by the requested worker budget (0 = pool width), the row count at
// parallelMinRows grain, and dropped to 1 when the product is too small
// to amortize the handoff.
func matMulShards(m, k, n, workers int) int {
	if m*k*n < parallelMinWork {
		return 1
	}
	shards := workers
	if shards <= 0 {
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
