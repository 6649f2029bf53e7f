#include "graph/sparse_adjacency.h"

#include <algorithm>
#include <cstdint>

#include "autograd/grad_mode.h"
#include "common/logging.h"
#include "runtime/parallel.h"
#include "shard/executor.h"

namespace enhancenet {
namespace graph {

namespace ag = ::enhancenet::autograd;

SparseAdjacency TopKSparsify(const Tensor& dense, int64_t k) {
  return TopKSparsify(dense, k, dense.size(-2));
}

SparseAdjacency TopKSparsify(const Tensor& dense, int64_t k, int64_t k_cand) {
  ENHANCENET_CHECK(dense.dim() == 2 || dense.dim() == 3);
  ENHANCENET_CHECK_GE(k, 1);
  const int64_t batch = dense.dim() == 3 ? dense.size(0) : 1;
  const int64_t n = dense.size(-2);
  ENHANCENET_CHECK_EQ(dense.size(-1), n);
  ENHANCENET_CHECK_GE(k_cand, k) << "candidate window smaller than k";
  const int64_t cand = std::min(k_cand, n);
  const int64_t kk = std::min(k, cand);
  const int64_t rows = batch * n;

  SparseAdjacency sparse;
  Tensor values = Tensor::Uninitialized({batch, n, kk});
  sparse.index.cols = ag::AcquireIndexArray(rows * kk);
  sparse.index.row_offsets = ag::AcquireIndexArray(rows + 1);
  sparse.index.batch = batch;
  sparse.index.n = n;
  sparse.index.nnz = rows * kk;

  const float* pa = dense.data();
  float* pv = values.data();
  int32_t* pc = sparse.index.cols.data();
  ParallelFor(0, rows, cand * kCostElement,
                       [=](int64_t r0, int64_t r1) {
                         for (int64_t r = r0; r < r1; ++r) {
                           const int64_t i = r % n;
                           // Candidate window centred on the row's own entity;
                           // cand == n degenerates to lo = 0 and the scan
                           // below visits columns in exactly the full-scan
                           // order, so the result is bitwise-identical to the
                           // unwindowed selection.
                           const int64_t lo = std::clamp<int64_t>(
                               i - cand / 2, 0, n - cand);
                           const float* arow = pa + r * n;
                           float* vrow = pv + r * kk;
                           int32_t* crow = pc + r * kk;
                           // Replace-the-minimum scan; strict compare keeps
                           // the lowest column among ties.
                           int64_t mn = 0;
                           for (int64_t j = 0; j < kk; ++j) {
                             vrow[j] = arow[lo + j];
                             crow[j] = static_cast<int32_t>(lo + j);
                             if (arow[lo + j] < vrow[mn]) mn = j;
                           }
                           for (int64_t j = lo + kk; j < lo + cand; ++j) {
                             if (arow[j] > vrow[mn]) {
                               vrow[mn] = arow[j];
                               crow[mn] = static_cast<int32_t>(j);
                               mn = 0;
                               for (int64_t s = 1; s < kk; ++s) {
                                 if (vrow[s] < vrow[mn]) mn = s;
                               }
                             }
                           }
                           for (int64_t s = 1; s < kk; ++s) {
                             const int32_t cv = crow[s];
                             const float vv = vrow[s];
                             int64_t t = s - 1;
                             while (t >= 0 && crow[t] > cv) {
                               crow[t + 1] = crow[t];
                               vrow[t + 1] = vrow[t];
                               --t;
                             }
                             crow[t + 1] = cv;
                             vrow[t + 1] = vv;
                           }
                         }
                       });
  int32_t* po = sparse.index.row_offsets.data();
  for (int64_t r = 0; r <= rows; ++r) po[r] = static_cast<int32_t>(r * kk);
  ag::BuildSparseTranspose(&sparse.index);
  sparse.values = ag::Variable::Leaf(std::move(values), /*requires_grad=*/false);
  return sparse;
}

ag::Variable ApplySparseAdjacency(const SparseAdjacency& adj,
                                  const ag::Variable& x, bool transpose) {
  ENHANCENET_CHECK(adj.defined());
  // Entity-sharded serving path (DESIGN.md §12): shard-local CSR blocks with
  // halo exchange for cross-shard neighbours. Bitwise-identical to the
  // single-context kernel, no-grad only.
  if (!ag::GradMode::IsEnabled()) {
    if (auto executor =
            shard::EntityShardedExecutor::ForCurrentContext(adj.index.n)) {
      return ag::Variable::Leaf(
          executor->ApplySparse(adj.index, adj.values.data(), x.data(),
                                transpose),
          /*requires_grad=*/false);
    }
  }
  return ag::SparseAdjacencyMatMul(adj.values, adj.index, x, transpose);
}

}  // namespace graph
}  // namespace enhancenet
