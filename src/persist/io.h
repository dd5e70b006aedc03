#ifndef QUASII_PERSIST_IO_H_
#define QUASII_PERSIST_IO_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "persist/errors.h"
#include "persist/failpoint.h"

namespace quasii::persist {

enum class ReadFileResult { kOk, kNotFound, kError };

/// Reads a whole file into `out`. Persistence artifacts are memory-sized by
/// construction (the store itself is in RAM), so whole-file reads keep the
/// parsing single-pass and the torn-tail arithmetic trivial. The buffer is
/// sized once from `fstat` and read into directly; a file that grew since
/// the `fstat` still reads to its end.
inline ReadFileResult ReadFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno == ENOENT ? ReadFileResult::kNotFound
                                     : ReadFileResult::kError;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return ReadFileResult::kError;
  }
  // One spare byte: the read that reports end-of-file needs room to try.
  out->clear();
  out->resize(static_cast<std::size_t>(st.st_size > 0 ? st.st_size : 0) + 1);
  std::size_t got = 0;
  for (;;) {
    if (got == out->size()) out->resize(2 * got);
    const ssize_t n = ::read(fd, out->data() + got, out->size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      out->clear();
      return ReadFileResult::kError;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out->resize(got);
  return ReadFileResult::kOk;
}

/// RAII wrapper over a POSIX fd with the two fault-injection hooks the
/// crash matrix needs: a named short-write site (writes half the buffer,
/// then dies mid-operation) and a named fsync-failure site (reports `kIo`
/// without syncing).
class FileHandle {
 public:
  FileHandle() = default;
  ~FileHandle() { Close(); }
  FileHandle(const FileHandle&) = delete;
  FileHandle& operator=(const FileHandle&) = delete;

  bool OpenWrite(const std::string& path, bool truncate) {
    Close();
    int flags = O_CREAT | O_WRONLY | O_CLOEXEC;
    flags |= truncate ? O_TRUNC : O_APPEND;
    fd_ = ::open(path.c_str(), flags, 0644);
    return fd_ >= 0;
  }

  bool is_open() const { return fd_ >= 0; }

  /// Appends the whole buffer. When the named fail point fires, half the
  /// buffer reaches the file and the process dies — the torn-frame case
  /// recovery must truncate.
  PersistError WriteAll(const void* data, std::size_t n,
                        const char* short_write_failpoint) {
    if (short_write_failpoint != nullptr &&
        FailPoints::Hit(short_write_failpoint)) {
      WriteSpan(data, n / 2);
      CrashNow();
    }
    return WriteSpan(data, n) ? PersistError::kNone : PersistError::kIo;
  }

  /// Durability barrier. When the named fail point fires the sync is
  /// *skipped* and reported failed — callers must treat the data as not yet
  /// durable.
  PersistError Sync(const char* fail_failpoint) {
    if (fail_failpoint != nullptr && FailPoints::Hit(fail_failpoint)) {
      return PersistError::kIo;
    }
    return ::fsync(fd_) == 0 ? PersistError::kNone : PersistError::kIo;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  bool WriteSpan(const void* data, std::size_t n) {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      const ssize_t w = ::write(fd_, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
    return true;
  }

  int fd_ = -1;
};

/// Renames `tmp` over `final_path` and syncs the containing directory, so a
/// crash leaves either the previous file or the complete new one — the
/// atomicity snapshot writes are built on.
inline PersistError AtomicReplace(const std::string& tmp,
                                  const std::string& final_path) {
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) return PersistError::kIo;
  const std::size_t slash = final_path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : final_path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return PersistError::kNone;
}

inline PersistError TruncateFile(const std::string& path, std::uint64_t len) {
  return ::truncate(path.c_str(), static_cast<off_t>(len)) == 0
             ? PersistError::kNone
             : PersistError::kIo;
}

}  // namespace quasii::persist

#endif  // QUASII_PERSIST_IO_H_
