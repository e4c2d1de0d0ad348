#include "precharac/artifact.h"

#include <filesystem>
#include <string_view>

#include "util/io.h"
#include "util/record_log.h"

namespace fav::precharac {

namespace {

constexpr std::string_view kMagic("FAVPCA1\0", 8);
// Section tags ("CTX\0", "CONE", "SIGS", "CHAR", "POTN" little-endian).
constexpr std::uint32_t kSecContext = 0x00585443u;
constexpr std::uint32_t kSecCone = 0x454E4F43u;
constexpr std::uint32_t kSecSignatures = 0x53474953u;
constexpr std::uint32_t kSecCharacterization = 0x52414843u;
constexpr std::uint32_t kSecPotency = 0x4E544F50u;

using io::get_le;
using io::put_le;

std::string canonical_key(const PrecharacKey& key) {
  return key.benchmark + "|" + std::to_string(key.benchmark_cycles) + "|" +
         std::to_string(key.cone_fanin_depth) + "|" +
         std::to_string(key.cone_fanout_depth) + "|" +
         std::to_string(key.precharac_cycles) + "|" +
         std::to_string(key.characterization.horizon) + "|" +
         std::to_string(key.characterization.first_cycle) + "|" +
         std::to_string(key.characterization.stride) + "|" +
         std::to_string(key.characterization.lifetime_threshold) + "|" +
         std::to_string(key.characterization.contamination_threshold) + "|" +
         std::to_string(key.node_count) + "|" + std::to_string(key.total_bits);
}

// --- section payload serialization ----------------------------------------

void put_frames(std::string& out, const std::vector<netlist::ConeFrame>& fs) {
  put_le(out, static_cast<std::uint32_t>(fs.size()));
  for (const netlist::ConeFrame& f : fs) {
    put_le(out, static_cast<std::int32_t>(f.frame));
    put_le(out, static_cast<std::uint32_t>(f.gates.size()));
    for (const netlist::NodeId g : f.gates) put_le(out, g);
    put_le(out, static_cast<std::uint32_t>(f.registers.size()));
    for (const netlist::NodeId r : f.registers) put_le(out, r);
  }
}

/// Reads a u32 element count and checks that the bytes left can hold that
/// many elements of at least `min_bytes` each, so a garbage count fails
/// before anything is allocated for it.
bool get_count(std::string_view data, std::size_t* off, std::size_t min_bytes,
               std::uint32_t* count) {
  return get_le(data, off, count) &&
         *count <= (data.size() - *off) / min_bytes;
}

bool get_node_ids(std::string_view data, std::size_t* off,
                  std::vector<netlist::NodeId>* ids) {
  std::uint32_t n = 0;
  if (!get_count(data, off, sizeof(netlist::NodeId), &n)) return false;
  ids->resize(n);
  for (netlist::NodeId& id : *ids) {
    if (!get_le(data, off, &id)) return false;
  }
  return true;
}

bool get_frames(std::string_view data, std::size_t* off,
                std::vector<netlist::ConeFrame>* fs) {
  // A frame is at least its index and two empty id lists.
  constexpr std::size_t kMinFrameBytes =
      sizeof(std::int32_t) + 2 * sizeof(std::uint32_t);
  std::uint32_t count = 0;
  if (!get_count(data, off, kMinFrameBytes, &count)) return false;
  fs->resize(count);
  for (netlist::ConeFrame& f : *fs) {
    std::int32_t frame = 0;
    if (!get_le(data, off, &frame)) return false;
    f.frame = frame;
    if (!get_node_ids(data, off, &f.gates) ||
        !get_node_ids(data, off, &f.registers)) {
      return false;
    }
  }
  return true;
}

std::string serialize_cone(const PrecharacBundle& b) {
  std::string out;
  put_le(out, b.responding_signal);
  put_frames(out, b.fanin_frames);
  put_frames(out, b.fanout_frames);
  return out;
}

bool parse_cone(std::string_view data, PrecharacBundle* b) {
  std::size_t off = 0;
  if (!get_le(data, &off, &b->responding_signal)) return false;
  if (!get_frames(data, &off, &b->fanin_frames)) return false;
  if (!get_frames(data, &off, &b->fanout_frames)) return false;
  return off == data.size();
}

std::string serialize_signatures(const PrecharacBundle& b) {
  std::string out;
  put_le(out, b.signature_cycles);
  put_le(out, static_cast<std::uint32_t>(b.signatures.size()));
  for (const BitVector& sig : b.signatures) {
    put_le(out, static_cast<std::uint64_t>(sig.size()));
    put_le(out, static_cast<std::uint32_t>(sig.words().size()));
    for (const std::uint64_t w : sig.words()) put_le(out, w);
  }
  return out;
}

bool parse_signatures(std::string_view data, PrecharacBundle* b) {
  constexpr std::size_t kMinSignatureBytes =
      sizeof(std::uint64_t) + sizeof(std::uint32_t);
  std::size_t off = 0;
  std::uint32_t count = 0;
  if (!get_le(data, &off, &b->signature_cycles)) return false;
  if (!get_count(data, &off, kMinSignatureBytes, &count)) return false;
  b->signatures.resize(count);
  for (BitVector& sig : b->signatures) {
    std::uint64_t bits = 0;
    std::uint32_t words = 0;
    if (!get_le(data, &off, &bits) ||
        !get_count(data, &off, sizeof(std::uint64_t), &words) ||
        words != bits / 64 + (bits % 64 != 0 ? 1 : 0)) {
      return false;
    }
    std::vector<std::uint64_t> storage(words);
    for (std::uint64_t& w : storage) {
      if (!get_le(data, &off, &w)) return false;
    }
    sig = BitVector::from_words(std::move(storage),
                                static_cast<std::size_t>(bits));
  }
  return off == data.size();
}

std::string serialize_characterization(const PrecharacBundle& b) {
  std::string out;
  put_le(out, b.charac_config.horizon);
  put_le(out, b.charac_config.first_cycle);
  put_le(out, b.charac_config.stride);
  put_le(out, b.charac_config.lifetime_threshold);
  put_le(out, b.charac_config.contamination_threshold);
  put_le(out, static_cast<std::uint32_t>(b.bits.size()));
  for (std::size_t i = 0; i < b.bits.size(); ++i) {
    put_le(out, b.bits[i].avg_lifetime);
    put_le(out, b.bits[i].max_lifetime);
    put_le(out, b.bits[i].avg_contamination);
    put_le(out, static_cast<std::int32_t>(b.bits[i].samples));
    put_le(out, static_cast<std::uint8_t>(b.characterized[i]));
  }
  return out;
}

bool parse_characterization(std::string_view data, PrecharacBundle* b) {
  constexpr std::size_t kMinBitBytes = 3 * sizeof(double) +
                                       sizeof(std::int32_t) +
                                       sizeof(std::uint8_t);
  std::size_t off = 0;
  std::uint32_t count = 0;
  if (!get_le(data, &off, &b->charac_config.horizon)) return false;
  if (!get_le(data, &off, &b->charac_config.first_cycle)) return false;
  if (!get_le(data, &off, &b->charac_config.stride)) return false;
  if (!get_le(data, &off, &b->charac_config.lifetime_threshold)) return false;
  if (!get_le(data, &off, &b->charac_config.contamination_threshold)) {
    return false;
  }
  if (!get_count(data, &off, kMinBitBytes, &count)) return false;
  b->bits.resize(count);
  b->characterized.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::int32_t samples = 0;
    std::uint8_t done = 0;
    if (!get_le(data, &off, &b->bits[i].avg_lifetime) ||
        !get_le(data, &off, &b->bits[i].max_lifetime) ||
        !get_le(data, &off, &b->bits[i].avg_contamination) ||
        !get_le(data, &off, &samples) || !get_le(data, &off, &done)) {
      return false;
    }
    b->bits[i].samples = samples;
    b->characterized[i] = static_cast<char>(done);
  }
  return off == data.size();
}

std::string serialize_potency(const PrecharacBundle& b) {
  std::string out;
  put_le(out, static_cast<std::uint32_t>(b.memory_bit_potency.size()));
  for (const double p : b.memory_bit_potency) put_le(out, p);
  return out;
}

bool parse_potency(std::string_view data, PrecharacBundle* b) {
  std::size_t off = 0;
  std::uint32_t count = 0;
  if (!get_count(data, &off, sizeof(double), &count)) return false;
  b->memory_bit_potency.resize(count);
  for (double& p : b->memory_bit_potency) {
    if (!get_le(data, &off, &p)) return false;
  }
  return off == data.size();
}

void append_section(std::string& out, std::uint32_t tag,
                    const std::string& section) {
  std::string payload;
  put_le(payload, tag);
  payload += section;
  io::append_frame(out, payload);
}

ArtifactLoad fail(ArtifactOutcome outcome, std::string detail) {
  ArtifactLoad load;
  load.outcome = outcome;
  load.detail = std::move(detail);
  return load;
}

}  // namespace

const char* artifact_outcome_name(ArtifactOutcome outcome) {
  switch (outcome) {
    case ArtifactOutcome::kHit: return "hit";
    case ArtifactOutcome::kMiss: return "miss";
    case ArtifactOutcome::kStale: return "stale";
    case ArtifactOutcome::kCorrupt: return "corrupt";
  }
  return "unknown";
}

std::uint64_t precharac_fingerprint(const PrecharacKey& key) {
  const std::string id = canonical_key(key);
  return io::fnv1a64(id.data(), id.size());
}

ArtifactLoad load_artifact(const std::string& path,
                           std::uint64_t fingerprint) {
  {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
      return fail(ArtifactOutcome::kMiss, "no artifact at " + path);
    }
  }
  Result<std::string> contents = io::read_file(path);
  if (!contents.is_ok()) {
    return fail(ArtifactOutcome::kMiss,
                "artifact unreadable: " + contents.status().message());
  }
  const std::string_view data = contents.value();

  // Header. The version gate runs before any checksum so a future format
  // reads as stale (recompute), not as corruption.
  if (data.substr(0, kMagic.size()) != kMagic) {
    return fail(ArtifactOutcome::kCorrupt, "bad artifact magic in " + path);
  }
  std::size_t off = kMagic.size();
  std::uint32_t version = 0;
  if (!get_le(data, &off, &version)) {
    return fail(ArtifactOutcome::kCorrupt, "truncated artifact header");
  }
  if (version != kArtifactVersion) {
    return fail(ArtifactOutcome::kStale,
                "artifact format version " + std::to_string(version) +
                    " (this build reads " +
                    std::to_string(kArtifactVersion) + ")");
  }
  std::string_view payload;
  std::size_t pos = 0;
  std::uint64_t file_fingerprint = 0;
  if (!io::next_frame(data, &off, &payload) ||
      !get_le(payload, &pos, &file_fingerprint) || pos != payload.size()) {
    return fail(ArtifactOutcome::kCorrupt,
                "artifact header checksum failure in " + path);
  }
  if (file_fingerprint != fingerprint) {
    return fail(ArtifactOutcome::kStale,
                "fingerprint mismatch (artifact was elaborated for a "
                "different configuration)");
  }

  // Sections run to the end of the file, each one checksummed frame; a
  // short or damaged one is corruption (artifact writes are atomic, so a
  // torn file is disk damage, not a crash artifact like a torn journal
  // tail).
  ArtifactLoad load;
  load.outcome = ArtifactOutcome::kHit;
  bool have_cone = false, have_sigs = false, have_charac = false,
       have_potency = false;
  for (int s = 0; off < data.size(); ++s) {
    std::uint32_t tag = 0;
    pos = 0;
    if (!io::next_frame(data, &off, &payload) ||
        !get_le(payload, &pos, &tag)) {
      return fail(ArtifactOutcome::kCorrupt,
                  "artifact section " + std::to_string(s) +
                      " truncated or checksum failure");
    }
    const std::string_view section = payload.substr(pos);
    bool parsed = true;
    switch (tag) {
      case kSecContext:
        break;  // provenance only; checksummed but not interpreted
      case kSecCone:
        parsed = parse_cone(section, &load.bundle);
        have_cone = parsed;
        break;
      case kSecSignatures:
        parsed = parse_signatures(section, &load.bundle);
        have_sigs = parsed;
        break;
      case kSecCharacterization:
        parsed = parse_characterization(section, &load.bundle);
        have_charac = parsed;
        break;
      case kSecPotency:
        parsed = parse_potency(section, &load.bundle);
        have_potency = parsed;
        break;
      default:
        return fail(ArtifactOutcome::kCorrupt,
                    "unknown artifact section tag " + std::to_string(tag));
    }
    if (!parsed) {
      return fail(ArtifactOutcome::kCorrupt,
                  "artifact section " + std::to_string(s) +
                      " payload malformed");
    }
  }
  if (!have_cone || !have_sigs || !have_charac || !have_potency) {
    return fail(ArtifactOutcome::kCorrupt,
                "artifact is missing a required section");
  }
  return load;
}

Status save_artifact(const std::string& path, std::uint64_t fingerprint,
                     const std::string& context,
                     const PrecharacBundle& bundle) {
  std::string out(kMagic);
  put_le(out, kArtifactVersion);
  std::string fingerprint_bytes;
  put_le(fingerprint_bytes, fingerprint);
  io::append_frame(out, fingerprint_bytes);
  append_section(out, kSecContext, context);
  append_section(out, kSecCone, serialize_cone(bundle));
  append_section(out, kSecSignatures, serialize_signatures(bundle));
  append_section(out, kSecCharacterization,
                 serialize_characterization(bundle));
  append_section(out, kSecPotency, serialize_potency(bundle));
  return io::atomic_write_file(path, out);
}

}  // namespace fav::precharac
