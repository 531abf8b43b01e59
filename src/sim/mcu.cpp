#include "sim/mcu.h"

namespace bswp::sim {

double McuProfile::cycles(const CostCounter& c) const {
  double total = 0.0;
  for (int i = 0; i < kNumEvents; ++i) {
    total += event_cycles[i] * static_cast<double>(c.count(static_cast<Event>(i)));
  }
  return total;
}

double McuProfile::seconds(const CostCounter& c) const {
  return cycles(c) / (freq_mhz * 1e6);
}

namespace {
void set_m3_costs(McuProfile& m, double flash_random, double flash_seq_byte,
                  double flash_seq_word) {
  m.event_cycles[static_cast<int>(Event::kFlashRandomByte)] = flash_random;
  m.event_cycles[static_cast<int>(Event::kFlashSeqByte)] = flash_seq_byte;
  m.event_cycles[static_cast<int>(Event::kFlashSeqWord)] = flash_seq_word;
  m.event_cycles[static_cast<int>(Event::kSramRead)] = 2.0;
  m.event_cycles[static_cast<int>(Event::kSramWrite)] = 2.0;
  m.event_cycles[static_cast<int>(Event::kMac)] = 2.0;
  m.event_cycles[static_cast<int>(Event::kAlu)] = 1.0;
  m.event_cycles[static_cast<int>(Event::kBranch)] = 2.0;
  m.event_cycles[static_cast<int>(Event::kRequant)] = 12.0;
}
}  // namespace

McuProfile mc_large() {
  McuProfile m;
  m.name = "MC-large (STM32F207ZG)";
  m.sram_bytes = 128 * 1024;
  m.flash_bytes = 1024 * 1024;
  m.freq_mhz = 120.0;
  // 120 MHz -> 5 flash wait states without ART hits; prefetch makes
  // sequential streams ~2 cycles/access.
  set_m3_costs(m, /*flash_random=*/5.0, /*flash_seq_byte=*/2.0, /*flash_seq_word=*/2.0);
  return m;
}

McuProfile host_profile() {
  McuProfile m;
  m.name = "host (generic superscalar)";
  // Effectively unbounded: the host lane never fails a footprint check.
  m.sram_bytes = static_cast<std::size_t>(1) << 40;
  m.flash_bytes = static_cast<std::size_t>(1) << 40;
  m.freq_mhz = 3000.0;
  // Out-of-order core with caches: no wait-stated flash, sub-cycle
  // loads/stores, cheap ALU. kRequant prices the scalar float chain of
  // Requant::apply, which only the scalar lane still runs per output; the
  // SIMD lane's epilogue (kernels::simd::requantize) does 8 outputs per
  // chain and is not priced separately.
  m.event_cycles[static_cast<int>(Event::kFlashRandomByte)] = 1.0;
  m.event_cycles[static_cast<int>(Event::kFlashSeqByte)] = 0.25;
  m.event_cycles[static_cast<int>(Event::kFlashSeqWord)] = 0.5;
  m.event_cycles[static_cast<int>(Event::kSramRead)] = 0.5;
  m.event_cycles[static_cast<int>(Event::kSramWrite)] = 0.5;
  m.event_cycles[static_cast<int>(Event::kMac)] = 1.0;
  m.event_cycles[static_cast<int>(Event::kAlu)] = 0.25;
  m.event_cycles[static_cast<int>(Event::kBranch)] = 1.0;
  m.event_cycles[static_cast<int>(Event::kRequant)] = 6.0;
  return m;
}

McuProfile mc_small() {
  McuProfile m;
  m.name = "MC-small (STM32F103RB)";
  m.sram_bytes = 20 * 1024;
  m.flash_bytes = 128 * 1024;
  m.freq_mhz = 72.0;
  // 72 MHz -> 2 wait states; smaller random/sequential gap than F2.
  set_m3_costs(m, /*flash_random=*/4.0, /*flash_seq_byte=*/2.0, /*flash_seq_word=*/2.0);
  return m;
}

}  // namespace bswp::sim
