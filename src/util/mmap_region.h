// Read-only memory mapping of a whole file, the substrate of every
// artifact file load: mapped artifacts are paged in on demand by the
// kernel, so cold-start cost is proportional to the bytes actually
// touched instead of the file size, and clean pages can be evicted
// under memory pressure without any bookkeeping here.
//
// On platforms without mmap Map() returns kNotImplemented: artifact
// file loads need POSIX mmap (docs/FORMATS.md).

#ifndef GANC_UTIL_MMAP_REGION_H_
#define GANC_UTIL_MMAP_REGION_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "util/status.h"

namespace ganc {

/// RAII read-only mapping of an entire file. Move-only; the mapping is
/// released in the destructor. The mapped bytes are immutable for the
/// lifetime of the region (PROT_READ) only because writers never touch
/// a published file: WriteArtifactFile writes a new file and renames it
/// over the old one. Truncating a mapped file raises SIGBUS in every
/// process that reads the lost pages.
class MmapRegion {
 public:
  /// Maps `path` read-only. Returns kNotImplemented when the platform
  /// has no mmap support, kIOError when the file cannot be
  /// opened/mapped.
  static Result<MmapRegion> Map(const std::string& path);

  MmapRegion() = default;
  MmapRegion(MmapRegion&& other) noexcept { *this = std::move(other); }
  MmapRegion& operator=(MmapRegion&& other) noexcept;
  MmapRegion(const MmapRegion&) = delete;
  MmapRegion& operator=(const MmapRegion&) = delete;
  ~MmapRegion() { Reset(); }

  const char* data() const { return static_cast<const char*>(addr_); }
  size_t size() const { return size_; }
  std::string_view bytes() const { return {data(), size_}; }
  bool valid() const { return addr_ != nullptr; }

 private:
  void Reset();

  void* addr_ = nullptr;
  size_t size_ = 0;
};

/// Drops the resident pages of `[p, p + len)` back to the kernel. The
/// range MUST lie inside a read-only file mapping (MmapRegion): for a
/// private file mapping MADV_DONTNEED simply discards the clean pages,
/// which refault from the page cache on the next touch — this is how
/// chunked sweeps keep a bounded RSS over datasets larger than memory.
/// Never pass heap memory (there DONTNEED would zero live data). The
/// range is shrunk inward to whole pages; a sub-page range is a no-op,
/// as is any call on a platform without mmap. Advisory: failures are
/// ignored.
void ReleaseMappedPages(const void* p, size_t len);

}  // namespace ganc

#endif  // GANC_UTIL_MMAP_REGION_H_
