#include "store/byte_sink.h"

#include <filesystem>
#include <ostream>
#include <utility>

namespace cg::store {
namespace {

/// Append-style message builder (GCC 12 -Wrestrict, PR 105329).
template <typename... Parts>
std::string concat(Parts&&... parts) {
  std::string out;
  (out.append(parts), ...);
  return out;
}

IoStatus stream_error(std::string detail) {
  return {fault::IoFault::kStreamError, std::move(detail)};
}

}  // namespace

IoStatus ByteSink::read_back(std::uint64_t offset, std::size_t length,
                             std::string* out) {
  (void)offset;
  (void)length;
  (void)out;
  return stream_error("sink does not support read_back");
}

// ---- FileSink ------------------------------------------------------------

std::unique_ptr<FileSink> FileSink::open(const std::string& path, bool append,
                                         IoStatus* status) {
  auto sink = std::unique_ptr<FileSink>(new FileSink(path));
  const auto mode =
      std::ios::binary | (append ? std::ios::app : std::ios::trunc);
  sink->out_.open(path, mode);
  if (!sink->out_) {
    if (status != nullptr) *status = stream_error(concat("cannot open ", path));
    return nullptr;
  }
  if (status != nullptr) *status = {};
  return sink;
}

IoStatus FileSink::write(std::string_view bytes) {
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out_) {
    // Clear the stream so a later truncate-and-retry can proceed; how much
    // of the buffer landed is unknown, which is why the writer repairs by
    // truncating back to the last known-good offset.
    out_.clear();
    return stream_error(concat("write of ", std::to_string(bytes.size()),
                               " bytes failed on ", path_));
  }
  return {};
}

IoStatus FileSink::flush() {
  out_.flush();
  if (!out_) {
    out_.clear();
    return stream_error(concat("flush failed on ", path_));
  }
  return {};
}

IoStatus FileSink::truncate(std::uint64_t size) {
  out_.flush();
  out_.close();
  std::error_code ec;
  std::filesystem::resize_file(path_, size, ec);
  if (ec) {
    return stream_error(
        concat("cannot truncate ", path_, ": ", ec.message()));
  }
  out_.clear();
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) {
    return stream_error(concat("cannot reopen ", path_, " after truncate"));
  }
  return {};
}

IoStatus FileSink::read_back(std::uint64_t offset, std::size_t length,
                             std::string* out) {
  // The write stream buffers; scrub must see what a reader would, so flush
  // first and read through an independent descriptor.
  if (IoStatus flushed = flush(); !flushed.ok()) return flushed;
  std::ifstream in(path_, std::ios::binary);
  if (!in) return stream_error(concat("cannot reopen ", path_, " for scrub"));
  in.seekg(static_cast<std::streamoff>(offset));
  out->resize(length);
  in.read(out->data(), static_cast<std::streamsize>(length));
  if (in.gcount() != static_cast<std::streamsize>(length)) {
    return stream_error(concat("scrub read of ", std::to_string(length),
                               " bytes at offset ", std::to_string(offset),
                               " came up short on ", path_));
  }
  return {};
}

// ---- BufferSink ----------------------------------------------------------

IoStatus BufferSink::read_back(std::uint64_t offset, std::size_t length,
                               std::string* out) {
  if (offset + length > buffer_.size()) {
    return stream_error("scrub read past the end of the buffer");
  }
  out->assign(buffer_, static_cast<std::size_t>(offset), length);
  return {};
}

// ---- OstreamSink ---------------------------------------------------------

IoStatus OstreamSink::write(std::string_view bytes) {
  out_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!*out_) {
    out_->clear();
    return stream_error(concat("write of ", std::to_string(bytes.size()),
                               " bytes failed on wrapped ostream"));
  }
  return {};
}

IoStatus OstreamSink::flush() {
  out_->flush();
  if (!*out_) {
    out_->clear();
    return stream_error("flush failed on wrapped ostream");
  }
  return {};
}

IoStatus OstreamSink::truncate(std::uint64_t size) {
  (void)size;
  return stream_error("wrapped ostream cannot truncate");
}

// ---- FileSource ----------------------------------------------------------

// One sized read into a presized buffer: copying through
// istreambuf_iterator took about 6x as long on a 196 MB archive.
IoStatus FileSource::read_all(std::string* out) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path_, ec);
  std::ifstream in(path_, std::ios::binary);
  if (ec || !in) return stream_error(concat("cannot open ", path_));
  out->resize(static_cast<std::size_t>(size));
  if (!in.read(out->data(), static_cast<std::streamsize>(size))) {
    return stream_error(concat("read failed: ", path_));
  }
  return {};
}

// ---- FaultingSink --------------------------------------------------------

void FaultingSink::count(fault::IoFault cls) {
  ++injected_[static_cast<std::size_t>(cls)];
  if (injected_metrics_ != nullptr) {
    injected_metrics_->add(concat("io.injected.", fault::io_fault_name(cls)));
  }
}

IoStatus FaultingSink::write(std::string_view bytes) {
  const fault::IoFaultDecision decision = plan_.decide(op_++);
  switch (decision.cls) {
    case fault::IoFault::kNoSpace: {
      count(decision.cls);
      return {fault::IoFault::kNoSpace,
              concat("injected ENOSPC at offset ", std::to_string(size_))};
    }
    case fault::IoFault::kShortWrite: {
      // A seeded strict prefix lands; the error is visible to the caller.
      const auto kept = static_cast<std::size_t>(
          decision.cut * static_cast<double>(bytes.size()));
      const std::string_view prefix =
          bytes.substr(0, kept < bytes.size() ? kept : bytes.size() - 1);
      if (IoStatus inner = inner_->write(prefix); !inner.ok()) return inner;
      size_ += prefix.size();
      count(decision.cls);
      return {fault::IoFault::kShortWrite,
              concat("injected short write: ", std::to_string(prefix.size()),
                     " of ", std::to_string(bytes.size()), " bytes")};
    }
    case fault::IoFault::kBitFlip: {
      // The whole buffer lands with one bit flipped — and the write
      // REPORTS SUCCESS. Only a read-back scrub catches this class.
      std::string corrupted(bytes);
      const std::uint64_t bit = decision.flip % (corrupted.size() * 8);
      corrupted[static_cast<std::size_t>(bit / 8)] ^=
          static_cast<char>(1u << (bit % 8));
      if (IoStatus inner = inner_->write(corrupted); !inner.ok()) return inner;
      size_ += corrupted.size();
      count(decision.cls);
      return {};
    }
    case fault::IoFault::kNone:
    case fault::IoFault::kStreamError:  // real errors come from inner_, not draws
    case fault::IoFault::kFsyncLost:    // applies to sync ops only
    case fault::IoFault::kTornTail:     // applies to crash replay only
      break;
  }
  IoStatus inner = inner_->write(bytes);
  if (inner.ok()) size_ += bytes.size();
  return inner;
}

IoStatus FaultingSink::sync() {
  const fault::IoFaultDecision decision = plan_.decide(op_++);
  if (decision.cls == fault::IoFault::kFsyncLost && size_ > synced_) {
    // fsyncgate semantics: the sync fails AND a suffix of the unsynced
    // bytes is gone from the medium. A seeded fraction of the tail
    // survives; everything after it is torn away.
    const std::uint64_t tail = size_ - synced_;
    const std::uint64_t keep =
        synced_ + static_cast<std::uint64_t>(
                      decision.cut * static_cast<double>(tail));
    if (IoStatus inner = inner_->truncate(keep); !inner.ok()) return inner;
    size_ = keep;
    count(decision.cls);
    return {fault::IoFault::kFsyncLost,
            concat("injected fsync loss: medium rolled back to offset ",
                   std::to_string(keep))};
  }
  IoStatus inner = inner_->sync();
  if (inner.ok()) synced_ = size_;
  return inner;
}

IoStatus FaultingSink::truncate(std::uint64_t size) {
  IoStatus inner = inner_->truncate(size);
  if (inner.ok()) {
    size_ = size;
    if (synced_ > size) synced_ = size;
  }
  return inner;
}

}  // namespace cg::store
