// Persistent pre-characterization artifact (the elaboration cache).
//
// Pre-characterization — cone extraction, switching signatures, register
// lifetimes/contamination, and the sampling model's memory-bit potency — is
// the dominant cold-start cost of a campaign and is identical for every
// process evaluating the same configuration (every supervised worker, every
// resume, every parallel campaign). This module serializes that bundle to a
// content-addressed on-disk artifact framed like the journal, with the
// in-memory frame codec of util/record_log.h
// (frame = u32 len | payload | u32 CRC32C):
//
//   magic "FAVPCA1\0" | u32 version | frame(u64 fingerprint)
//                     | frame(u32 tag | section)*
//
// The fingerprint is FNV-1a over every knob that changes the bundle
// (benchmark, cone depths, characterization config, netlist shape — see
// PrecharacKey); sampler strategy, seed and sample count are deliberately
// excluded so one artifact serves a whole family of campaigns. Loading
// validates everything: any mismatch classifies as
//   kMiss    — no artifact at the path (first run),
//   kStale   — wrong fingerprint or format version (config changed),
//   kCorrupt — bad magic, truncation, checksum failure (disk damage),
// and the caller degrades to recompute-and-rewrite; a damaged artifact can
// therefore cost time but never correctness. Writes are atomic
// (util/io::atomic_write_file), so readers never observe a torn artifact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/cones.h"
#include "precharac/characterize.h"
#include "util/bitvector.h"
#include "util/status.h"

namespace fav::precharac {

/// Current artifact format version; loading any other version is kStale.
/// Version 2 moved the header and sections onto record-log frames.
constexpr std::uint32_t kArtifactVersion = 2;

/// Everything that changes the pre-characterization bundle. The fingerprint
/// over it is the artifact's content address; campaign knobs that do not
/// affect elaboration (seed, samples, strategy, worker count, and the cache
/// path itself) are deliberately absent.
struct PrecharacKey {
  std::string benchmark;
  std::uint64_t benchmark_cycles = 0;  // golden-run horizon (drives potency)
  int cone_fanin_depth = 0;
  int cone_fanout_depth = 0;
  std::uint64_t precharac_cycles = 0;
  CharacterizationConfig characterization;
  std::uint64_t node_count = 0;  // netlist shape guard
  std::uint64_t total_bits = 0;  // register-map shape guard
};

/// FNV-1a over the canonical rendering of `key`; stable across processes.
std::uint64_t precharac_fingerprint(const PrecharacKey& key);

/// The serialized pre-characterization state: enough to rebuild the cone,
/// signature trace, register characterization and sampling potency without
/// re-running any simulation.
struct PrecharacBundle {
  netlist::NodeId responding_signal = 0;
  std::vector<netlist::ConeFrame> fanin_frames;
  std::vector<netlist::ConeFrame> fanout_frames;
  std::uint64_t signature_cycles = 0;
  std::vector<BitVector> signatures;  // indexed by NodeId
  CharacterizationConfig charac_config;
  std::vector<BitCharacterization> bits;  // indexed by flat bit
  std::vector<char> characterized;        // indexed by flat bit
  std::vector<double> memory_bit_potency;  // indexed by flat bit
};

enum class ArtifactOutcome {
  kHit,      // loaded and fully validated
  kMiss,     // no artifact at the path
  kStale,    // fingerprint or format version mismatch
  kCorrupt,  // bad magic, truncation, or checksum failure
};

const char* artifact_outcome_name(ArtifactOutcome outcome);

struct ArtifactLoad {
  ArtifactOutcome outcome = ArtifactOutcome::kMiss;
  /// Provenance for logs and the run report ("fingerprint mismatch", "CONE
  /// section checksum failure", ...). Empty on a hit.
  std::string detail;
  /// Valid only when outcome == kHit.
  PrecharacBundle bundle;
};

/// Loads and validates the artifact at `path` against `fingerprint`. Never
/// throws on bad bytes: every defect maps to a non-hit outcome.
ArtifactLoad load_artifact(const std::string& path, std::uint64_t fingerprint);

/// Atomically writes the artifact (temp + rename + parent-dir fsync).
/// `context` is a human-readable provenance string stored alongside the
/// sections (the CTX section); it is checksummed but not validated.
Status save_artifact(const std::string& path, std::uint64_t fingerprint,
                     const std::string& context,
                     const PrecharacBundle& bundle);

}  // namespace fav::precharac
