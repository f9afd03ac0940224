#include "util/mmap_region.h"

#include <cstdint>

#if defined(__unix__) || defined(__APPLE__)
#define GANC_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define GANC_HAS_MMAP 0
#endif

namespace ganc {

MmapRegion& MmapRegion::operator=(MmapRegion&& other) noexcept {
  if (this != &other) {
    Reset();
    addr_ = other.addr_;
    size_ = other.size_;
    other.addr_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

#if GANC_HAS_MMAP

Result<MmapRegion> MmapRegion::Map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError(path + " is not a regular file");
  }
  MmapRegion region;
  region.size_ = static_cast<size_t>(st.st_size);
  if (region.size_ == 0) {
    // mmap rejects zero-length maps; an empty file maps to an empty
    // region and fails later parsing with a proper truncation error.
    ::close(fd);
    region.addr_ = nullptr;
    return region;
  }
  void* addr = ::mmap(nullptr, region.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps its own reference to the file; the descriptor is
  // not needed past this point either way.
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IOError("mmap failed for " + path);
  }
  region.addr_ = addr;
  return region;
}

void MmapRegion::Reset() {
  if (addr_ != nullptr) {
    ::munmap(addr_, size_);
    addr_ = nullptr;
    size_ = 0;
  }
}

void ReleaseMappedPages(const void* p, size_t len) {
  if (p == nullptr || len == 0) return;
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const uintptr_t lo = reinterpret_cast<uintptr_t>(p);
  const uintptr_t hi = lo + len;
  // Shrink inward to whole pages so neighbouring data sharing an edge
  // page is never dropped out from under a concurrent reader.
  const uintptr_t first = (lo + page - 1) / page * page;
  const uintptr_t last = hi / page * page;
  if (first >= last) return;
  ::madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
}

#else  // !GANC_HAS_MMAP

Result<MmapRegion> MmapRegion::Map(const std::string& path) {
  (void)path;
  return Status::NotImplemented("mmap is not available on this platform");
}

void MmapRegion::Reset() {}

void ReleaseMappedPages(const void* p, size_t len) {
  (void)p;
  (void)len;
}

#endif  // GANC_HAS_MMAP

}  // namespace ganc
