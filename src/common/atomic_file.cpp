#include "common/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/contract.hpp"

namespace mphpc {

namespace {

[[noreturn]] void fail(const char* what, const std::string& path) {
  throw std::runtime_error(std::string(what) + " " + path + ": " +
                           std::strerror(errno));
}

/// Directory part of `path` ("." when the path has no slash), used to
/// fsync the directory entry after the rename.
std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

void atomic_write_text(const std::string& path, std::string_view content) {
  atomic_write_text(path, {content});
}

void atomic_write_text(const std::string& path,
                       std::initializer_list<std::string_view> parts) {
  MPHPC_EXPECTS(!path.empty());
  // Unique per (process, call): concurrent threads writing different
  // destinations in the same directory must not share a temp name.
  static std::atomic<unsigned long long> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot open for writing", tmp);

  for (const std::string_view content : parts) {
    const char* data = content.data();
    std::size_t left = content.size();
    while (left > 0) {
      const ssize_t n = ::write(fd, data, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        ::unlink(tmp.c_str());
        fail("write failed", tmp);
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  // Flush file data to stable storage before the rename publishes it;
  // otherwise a crash could expose a renamed-but-empty file.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    fail("fsync failed", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail("close failed", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail("rename failed", path);
  }

  // Best-effort directory fsync so the rename itself is durable. Some
  // filesystems refuse O_RDONLY fsync on directories; a failure here
  // cannot tear the file, so it is not fatal.
  const int dir_fd = ::open(parent_dir(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    (void)::fsync(dir_fd);
    ::close(dir_fd);
  }
}

}  // namespace mphpc
