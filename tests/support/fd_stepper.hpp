#pragma once

// Per-sample driver for the partitioned-block FD engine, shared by the
// engine's own tests and the LancFd scenarios. A filled input block is
// processed at the START of the next tick, so the error window for the
// block just played is always complete before the next process_block —
// adapt_block's ordering precondition holds by construction. Output is
// silent until the first block has been produced: that one-block pipeline
// fill is what the caller's lookahead pays for.
#include <algorithm>
#include <cstddef>

#include "adaptive/fd_fxlms.hpp"
#include "common/types.hpp"

namespace mute::adaptive {

struct FdStepper {
  FdFxlmsEngine* eng;
  Signal in, out, err;
  std::size_t in_fill = 0, out_pos = 0, err_fill = 0;
  bool ready = false, can_adapt = false;

  explicit FdStepper(FdFxlmsEngine* e)
      : eng(e), in(e->block_size()), out(e->block_size()),
        err(e->block_size()) {}

  Sample operator()(Sample xa) {
    if (in_fill == eng->block_size()) {
      eng->process_block(in, out);
      in_fill = 0;
      out_pos = 0;
      ready = true;
      can_adapt = true;
    }
    in[in_fill++] = xa;
    return ready ? out[out_pos++] : Sample{0};
  }
  void observe(Sample e) {
    err[err_fill++] = e;
    if (err_fill == eng->block_size()) {
      if (can_adapt) eng->adapt_block(err);
      can_adapt = false;
      err_fill = 0;
    }
  }
  // Drop the buffered blocks (after a retarget they belong to the old
  // stream) and play silence until the next block is produced.
  void reset() {
    in_fill = 0;
    out_pos = 0;
    err_fill = 0;
    ready = false;
    can_adapt = false;
    std::fill(out.begin(), out.end(), Sample{0});
  }
};

}  // namespace mute::adaptive
