#include "util/record_log.h"

#include <sys/stat.h>

#include <cerrno>
#include <filesystem>

#include "util/io.h"

namespace fav::io {

void append_frame(std::string& out, std::string_view payload) {
  put_le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  put_le(out, crc32c(payload.data(), payload.size()));
}

bool next_frame(std::string_view data, std::size_t* offset,
                std::string_view* payload) {
  std::size_t off = *offset;
  std::uint32_t len = 0, crc = 0;
  if (!get_le(data, &off, &len) || len == 0 || data.size() - off < len) {
    return false;
  }
  const std::string_view body = data.substr(off, len);
  off += len;
  if (!get_le(data, &off, &crc) || crc != crc32c(body.data(), body.size())) {
    return false;
  }
  *payload = body;
  *offset = off;
  return true;
}

Result<LogScan> RecordLog::scan(const std::string& path,
                                std::string_view magic, const Visitor& visit) {
  const std::unique_ptr<std::FILE, Closer> f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return status_from_errno(errno, "open " + path + " for reading");
  }
  struct stat st {};
  if (::fstat(fileno(f.get()), &st) != 0) {
    return status_from_errno(errno, "stat " + path);
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  // `buf` holds the current frame's length field followed by whatever was
  // read after it; each read takes one payload, its checksum and the next
  // frame's length field.
  std::string buf(magic.size() + sizeof(std::uint32_t), '\0');
  std::size_t got = std::fread(buf.data(), 1, buf.size(), f.get());
  if (std::ferror(f.get()) != 0) {
    return Status(ErrorCode::kIoError, "cannot read " + path);
  }
  if (got < magic.size() || buf.compare(0, magic.size(), magic) != 0) {
    return Status(ErrorCode::kJournalCorrupt, "bad magic in " + path);
  }
  buf.resize(got);
  buf.erase(0, magic.size());
  LogScan scan;
  scan.valid_bytes = magic.size();
  for (;;) {
    const std::uint64_t left = size - scan.valid_bytes;
    std::size_t off = 0;
    std::uint32_t len = 0;
    if (!get_le(buf, &off, &len)) break;  // clean end or a torn length field
    const std::uint64_t frame_bytes = kFrameOverhead + len;
    if (len == 0 || frame_bytes > left) {
      scan.damaged = left > frame_bytes;
      break;
    }
    buf.resize(sizeof(std::uint32_t) + frame_bytes);
    got = std::fread(buf.data() + sizeof(std::uint32_t), 1, frame_bytes,
                     f.get());
    if (std::ferror(f.get()) != 0) {
      return Status(ErrorCode::kIoError, "cannot read " + path);
    }
    buf.resize(sizeof(std::uint32_t) + got);
    std::size_t pos = 0;
    std::string_view payload;
    if (!next_frame(buf, &pos, &payload) || !visit(payload)) {
      scan.damaged = left > frame_bytes;
      break;
    }
    scan.valid_bytes += frame_bytes;
    buf.erase(0, pos);
  }
  return scan;
}

Status RecordLog::create(const std::string& path, std::string_view magic,
                         std::string_view first_record) {
  FAV_CHECK(file_ == nullptr);
  path_ = path;
  file_.reset(std::fopen(path.c_str(), "wb"));
  if (file_ == nullptr) {
    return status_from_errno(errno, "open " + path + " for writing");
  }
  std::string head(magic);
  if (!first_record.empty()) append_frame(head, first_record);
  const Status written =
      write_all(file_.get(), head.data(), head.size(), path);
  if (!written.is_ok()) return written;
  const Status synced = sync_file();
  if (!synced.is_ok()) return synced;
  return sync_dir();
}

Status RecordLog::open_append(const std::string& path,
                              std::uint64_t valid_bytes) {
  FAV_CHECK(file_ == nullptr);
  path_ = path;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec || size < valid_bytes) {
    return Status(ErrorCode::kIoError,
                  "cannot stat " + path + " for appending");
  }
  const bool torn = size > valid_bytes;
  if (torn) {
    std::filesystem::resize_file(path, valid_bytes, ec);
    if (ec) {
      return Status(ErrorCode::kIoError, "cannot truncate torn tail of " +
                                             path + ": " + ec.message());
    }
  }
  file_.reset(std::fopen(path.c_str(), "ab"));
  if (file_ == nullptr) {
    return status_from_errno(errno, "open " + path + " for appending");
  }
  if (torn) {
    const Status synced = sync_file();
    if (!synced.is_ok()) return synced;
  }
  return sync_dir();
}

Status RecordLog::append(std::string_view payload) {
  if (file_ == nullptr) {
    return Status(ErrorCode::kFailedPrecondition, "record log is not open");
  }
  std::string frame;
  frame.reserve(payload.size() + kFrameOverhead);
  append_frame(frame, payload);
  const Status written =
      write_all(file_.get(), frame.data(), frame.size(), path_);
  if (!written.is_ok()) return written;
  return sync_file();
}

Status RecordLog::sync_file() {
  ScopeTimer scope(metrics_, "journal.fsync_ns");
  if (metrics_ != nullptr) metrics_->add_counter("journal.commits");
  return flush_and_fsync(file_.get(), path_);
}

Status RecordLog::sync_dir() {
  ScopeTimer scope(metrics_, "journal.dir_fsync_ns");
  if (metrics_ != nullptr) metrics_->add_counter("journal.dir_fsyncs");
  const std::filesystem::path parent =
      std::filesystem::path(path_).parent_path();
  return fsync_dir(parent.empty() ? "." : parent.string());
}

}  // namespace fav::io
