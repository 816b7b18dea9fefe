// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// block checksum of segment format v3 pages, WAL format v2 records, the
// SfcDb batch journal, and network protocol frames. Its output is the
// widely deployed CRC32C (iSCSI / RocksDB / LevelDB unmasked) bitstream,
// so fixtures written by hand in tests validate the real on-disk rule.
//
// Two kernels compute the same function:
//
//   Crc32cPortable   table-driven, one byte per step; runs everywhere and
//                    is the reference the tests compare against.
//   SSE4.2           x86-64 `crc32` instruction, 8 bytes per step; carries
//                    a per-function target attribute, so the binary still
//                    runs on CPUs without SSE4.2.
//
// Crc32c dispatches once per process: SSE4.2 when the CPU has it
// (detected once, cached), otherwise the portable loop — the only path
// on non-x86-64 builds. Both produce bit-identical results, so segment
// files, WAL records and frames move freely between machines.

#ifndef ONION_STORAGE_CRC32C_H_
#define ONION_STORAGE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace onion::storage {

/// True when the running CPU executes the SSE4.2 `crc32` instruction
/// (checked once via CPUID, cached). Always false on non-x86-64 builds.
bool HasSse42();

/// CRC of [data, data + n), starting from `crc` (pass 0 for a fresh sum;
/// feed a previous result to extend it over concatenated buffers).
/// Dispatched: the SSE4.2 kernel when HasSse42(), else Crc32cPortable.
uint32_t Crc32c(uint32_t crc, const uint8_t* data, size_t n);

inline uint32_t Crc32c(const uint8_t* data, size_t n) {
  return Crc32c(0, data, n);
}

/// Table-driven reference kernel, one byte per step; same contract and
/// output as Crc32c.
uint32_t Crc32cPortable(uint32_t crc, const uint8_t* data, size_t n);

}  // namespace onion::storage

#endif  // ONION_STORAGE_CRC32C_H_
