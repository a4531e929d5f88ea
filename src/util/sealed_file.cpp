#include "util/sealed_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "util/byte_io.h"
#include "util/crc32.h"

namespace leakydsp::util {

namespace {

// magic + version + payload_size before the payload, crc after it.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8;

std::string describe(const std::string& path, const std::string& reason,
                     int err) {
  std::string out = "'";
  out += path;
  out += "': ";
  out += reason;
  if (err != 0) {
    out += " (errno ";
    out += std::to_string(err);
    out += ": ";
    out += std::error_code(err, std::generic_category()).message();
    out += ')';
  }
  return out;
}

/// Throws for the system call that just failed; reads errno before
/// anything else can overwrite it.
[[noreturn]] void fail_errno(const std::string& path, const char* reason) {
  const int err = errno;
  throw SealedFileError(path, reason, err);
}

[[noreturn]] void malformed(const std::string& path,
                            const std::string& reason) {
  throw SealedFileError(path, reason, 0);
}

/// Owns a file descriptor; closes it on scope exit unless close() ran.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  /// Closes now; returns close()'s result.
  int close() {
    const int rc = ::close(fd_);
    fd_ = -1;
    return rc;
  }

 private:
  int fd_;
};

void write_exact(int fd, std::span<const std::uint8_t> bytes,
                 const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno(path, "write failure");
    }
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
}

void read_exact(int fd, std::span<std::uint8_t> out, const std::string& path) {
  while (!out.empty()) {
    const ssize_t n = ::read(fd, out.data(), out.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno(path, "read failure");
    }
    if (n == 0) malformed(path, "truncated while reading");
    out = out.subspan(static_cast<std::size_t>(n));
  }
}

}  // namespace

SealedFileError::SealedFileError(const std::string& path,
                                 const std::string& reason, int err)
    : PreconditionError(describe(path, reason, err)),
      path_(path),
      reason_(reason),
      err_(err) {}

void write_sealed(const std::string& path, const SealedFormat& format,
                  std::span<const std::uint8_t> payload) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw SealedFileError(dir, "cannot create directory", ec.value());

  ByteWriter header;
  header.bytes({reinterpret_cast<const std::uint8_t*>(format.magic), 4});
  header.u32(format.version);
  header.u64(payload.size());
  ByteWriter trailer;
  trailer.u32(crc32(payload));

  // The crash-safe sequence: the data blocks are durable (fsync) before
  // the name flips (rename), and the directory entry is durable before
  // the caller reports progress. A plain flush-then-rename survives a
  // crash of this process but not of the machine: after power loss the
  // rename can be on disk while the data is not.
  const std::string tmp = path + ".tmp";
  Fd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  if (fd.get() < 0) fail_errno(tmp, "cannot open for writing");
  try {
    write_exact(fd.get(), header.span(), tmp);
    write_exact(fd.get(), payload, tmp);
    write_exact(fd.get(), trailer.span(), tmp);
    if (::fsync(fd.get()) != 0) fail_errno(tmp, "fsync failure");
    if (fd.close() != 0) fail_errno(tmp, "close failure");
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      const int err = errno;
      throw SealedFileError(path, "cannot rename '" + tmp + "' into place",
                            err);
    }
  } catch (const SealedFileError&) {
    ::unlink(tmp.c_str());
    throw;
  }
  const Fd dir_fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
  if (dir_fd.get() < 0) fail_errno(dir, "cannot open directory for fsync");
  if (::fsync(dir_fd.get()) != 0) fail_errno(dir, "directory fsync failure");
}

std::vector<std::uint8_t> read_sealed(const std::string& path,
                                      const SealedFormat& format) {
  const Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) fail_errno(path, "cannot open");
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) fail_errno(path, "cannot stat");
  if (!S_ISREG(st.st_mode)) malformed(path, "not a regular file");
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  if (file_size < kSealedFrameBytes) {
    malformed(path, "too small to hold a frame");
  }

  std::uint8_t header[kHeaderBytes];
  read_exact(fd.get(), header, path);
  if (std::memcmp(header, format.magic, 4) != 0) {
    malformed(path, "bad magic");
  }
  ByteReader fields({header + 4, kHeaderBytes - 4});
  const std::uint32_t version = fields.u32();
  if (version != format.version) {
    malformed(path, "unsupported version " + std::to_string(version));
  }
  const std::uint64_t payload_size = fields.u64();
  if (payload_size != file_size - kSealedFrameBytes) {
    malformed(path, "payload size field disagrees with the file size");
  }
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(payload_size));
  read_exact(fd.get(), payload, path);
  std::uint8_t crc_bytes[4];
  read_exact(fd.get(), crc_bytes, path);
  if (ByteReader(crc_bytes).u32() != crc32(payload)) {
    malformed(path, "payload CRC mismatch");
  }
  return payload;
}

}  // namespace leakydsp::util
