#include "support/checkpoint.h"

#include <utility>

#include "snap/snapshot.h"

namespace fg::support {

std::vector<uint8_t> checkpoint(const core::StructuralCore& core) {
  snap::BaseImage image;
  core.to_base_image(&image);
  return snap::encode_base(image);
}

std::vector<uint8_t> checkpoint(const ForgivingGraph& fg) {
  return checkpoint(fg.core());
}

std::optional<ForgivingGraph> restore(std::span<const uint8_t> bytes,
                                      std::string* error) {
  snap::BaseImage image;
  core::StructuralCore core;
  if (!snap::decode_base(bytes, &image, error) ||
      !core::StructuralCore::from_base_image(image, &core, error))
    return std::nullopt;
  return ForgivingGraph(std::move(core));
}

}  // namespace fg::support
