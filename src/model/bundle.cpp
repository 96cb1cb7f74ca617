#include "model/bundle.h"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/binary_io.h"

namespace canids::model {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("model bundle: " + what);
}

}  // namespace

void ModelBundle::add(std::string name, std::string payload) {
  if (name.empty()) {
    throw std::invalid_argument("model bundle: section name must not be empty");
  }
  if (contains(name)) {
    throw std::invalid_argument("model bundle: duplicate section '" + name +
                                "'");
  }
  if (payload.size() > kMaxSectionBytes) {
    throw std::invalid_argument("model bundle: section '" + name +
                                "' exceeds the size cap");
  }
  sections_.push_back(Section{std::move(name), std::move(payload)});
}

bool ModelBundle::contains(std::string_view name) const noexcept {
  return find(name) != nullptr;
}

const std::string* ModelBundle::find(std::string_view name) const noexcept {
  for (const Section& section : sections_) {
    if (section.name == name) return &section.payload;
  }
  return nullptr;
}

void ModelBundle::save(std::ostream& out) const {
  util::BinaryWriter writer(out);
  writer.bytes(kBundleMagic);
  writer.u32(kBundleFormatVersion);
  writer.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& section : sections_) {
    writer.u32(static_cast<std::uint32_t>(section.name.size()));
    writer.bytes(section.name);
    writer.u64(section.payload.size());
    writer.bytes(section.payload);
  }
  if (!out) fail("write failed");
}

ModelBundle ModelBundle::load(std::istream& in) {
  util::BinaryReader reader(in, "model bundle");
  char magic[8];
  in.read(magic, sizeof magic);
  if (in.gcount() != sizeof magic ||
      std::string_view(magic, sizeof magic) != kBundleMagic) {
    fail("bad magic (not a canids model bundle)");
  }
  const std::uint32_t version = reader.u32("version field");
  if (version != kBundleFormatVersion) {
    fail("unsupported format version " + std::to_string(version) +
         " (this build reads version " +
         std::to_string(kBundleFormatVersion) +
         ") — re-run `canids train` on clean captures to write a current "
         "bundle");
  }
  const std::uint32_t count = reader.u32("section count");

  ModelBundle bundle;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t name_len = reader.u32("section name length");
    if (name_len == 0) fail("empty section name");
    if (name_len > 4096) fail("implausible section name length");
    std::string name = reader.bytes(name_len, "section name");
    const std::uint64_t payload_len = reader.u64("section payload length");
    if (payload_len > kMaxSectionBytes) {
      fail("section '" + name + "' exceeds the size cap");
    }
    std::string payload = reader.bytes(payload_len, "section payload");
    if (bundle.contains(name)) fail("duplicate section '" + name + "'");
    bundle.sections_.push_back(Section{std::move(name), std::move(payload)});
  }
  // A bundle is the whole stream: trailing bytes mean a corrupted file or
  // a concatenation accident, and must not load as if they weren't there.
  reader.expect_eof("trailing bytes after the last section");
  return bundle;
}

}  // namespace canids::model
