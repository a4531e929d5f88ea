// A campaign's own traces for accumulators the campaign does not keep
// (second-order CPA, DPA): the record stream that run() and record()
// generate — trace t on trace_parent.fork(t), settled between encryptions,
// digitized by the batched sensor path — cut to its POI window.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "attack/campaign.h"
#include "crypto/aes128.h"
#include "sim/trace_store.h"
#include "util/thread_pool.h"

namespace leakydsp::bench {

/// Generates the next `n` traces of `cursor`'s stream, one record wave at a
/// time with its blocks spread over `pool`, and hands each wave to
/// `sink(ciphertexts, poi_rows)` in trace order: row i holds trace i's
/// poi_count() samples from poi_begin(). The rows depend only on the
/// cursor, never on the pool's size.
template <class Sink>
void stream_poi_rows(const attack::TraceCampaign& campaign,
                     attack::TraceCampaign::RecordCursor& cursor,
                     std::size_t n, util::ThreadPool& pool, Sink&& sink) {
  const std::size_t block = campaign.config().block_traces;
  const std::size_t begin = campaign.poi_begin();
  const std::size_t count = campaign.poi_count();
  std::vector<crypto::Block> ciphertexts;
  std::vector<double> rows;
  while (n > 0) {
    const std::size_t first = cursor.produced;
    const std::size_t m = std::min(n, campaign.record_wave_traces(pool.size()));
    const auto plaintexts = campaign.next_plaintexts(cursor, m);
    std::vector<std::vector<sim::StoredTrace>> blocks((m + block - 1) / block);
    pool.parallel_for(blocks.size(), [&](std::size_t b) {
      const std::size_t lo = b * block;
      blocks[b] = campaign.record_block(
          cursor.trace_parent, first + lo,
          std::span(plaintexts).subspan(lo, std::min(block, m - lo)));
    });
    ciphertexts.clear();
    rows.clear();
    for (const auto& traces : blocks) {
      for (const auto& trace : traces) {
        ciphertexts.push_back(trace.ciphertext);
        const double* poi = trace.samples.data() + begin;
        rows.insert(rows.end(), poi, poi + count);
      }
    }
    sink(std::span<const crypto::Block>(ciphertexts),
         std::span<const double>(rows));
    n -= m;
  }
}

}  // namespace leakydsp::bench
