// Engine state as bytes, for the suites that compare engines or round-trip
// them. The state format is the fgsnap base image (docs/SNAPSHOTS.md):
// checkpoint() is to_base_image + snap::encode_base with the wave and
// cursor header fields at zero, and restore() is snap::decode_base +
// from_base_image + ForgivingGraph(StructuralCore&&).
//
// Two engines have equal checkpoint bytes iff their G', dead set, forest
// arena (tombstones included), live count, slot tables, image-edge
// multiplicities and mutation epoch all agree — the state contract C4
// pins (docs/CONCURRENCY.md).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fg/core/structural_core.h"
#include "fg/forgiving_graph.h"

namespace fg::support {

std::vector<uint8_t> checkpoint(const core::StructuralCore& core);
std::vector<uint8_t> checkpoint(const ForgivingGraph& fg);

/// Rebuild an engine from checkpoint() bytes (or any base image). Malformed
/// bytes return std::nullopt with the loader's message in *error.
std::optional<ForgivingGraph> restore(std::span<const uint8_t> bytes,
                                      std::string* error);

}  // namespace fg::support
