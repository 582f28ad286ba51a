/**
 * @file
 * Binary serialization for TargetSnapshots — the persistence layer
 * under riscserved's idle-session eviction (docs/SERVER.md).
 *
 * A serialized snapshot is a self-describing little-endian byte image:
 * magic, format version, backend name, then the backend's complete
 * captured state (every field of MachineSnapshot / VaxSnapshot,
 * including statistics, dirty memory pages, and cache-level contents).
 * Deserializing and restoring reproduces the machine bit-for-bit —
 * the session-lifecycle tests assert register/stats equality across an
 * evict/restore round trip against a never-evicted twin.
 *
 * The decoder treats input as untrusted (it comes back from a spool
 * directory that may have been truncated or corrupted): any structural
 * problem raises FatalError with a description, never undefined
 * behavior.  Vector lengths are validated against the remaining input
 * so a corrupt length cannot trigger a huge allocation.
 */

#ifndef RISC1_TARGET_SNAPSHOT_IO_HH
#define RISC1_TARGET_SNAPSHOT_IO_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "target/target.hh"

namespace risc1::target {

/** Serialize @p snap (either backend) into a self-contained buffer. */
std::vector<std::uint8_t> serializeSnapshot(const TargetSnapshot &snap);

/**
 * Decode a buffer produced by serializeSnapshot().  @throws FatalError
 * on bad magic, an unsupported version, an unknown backend, or any
 * truncation/corruption.
 */
std::shared_ptr<const TargetSnapshot>
deserializeSnapshot(const std::uint8_t *data, std::size_t size);

/** Convenience overload. */
std::shared_ptr<const TargetSnapshot>
deserializeSnapshot(const std::vector<std::uint8_t> &bytes);

/**
 * Write @p snap to @p path atomically: the bytes go to `<path>.tmp`,
 * which is fsynced, closed and renamed over @p path.  Directories are
 * not created — the caller owns the spool layout.  @throws FatalError
 * with the errno text on I/O failure, after removing the temporary;
 * an earlier file at @p path is then left as it was.
 */
void writeSnapshotFile(const std::string &path, const TargetSnapshot &snap);

/** Read and decode @p path.  @throws FatalError on I/O or decode
 *  failure. */
std::shared_ptr<const TargetSnapshot>
readSnapshotFile(const std::string &path);

} // namespace risc1::target

#endif // RISC1_TARGET_SNAPSHOT_IO_HH
