#include "server/protocol.h"

#include <errno.h>
#include <string.h>

#include <cstdio>

#include "util/io_util.h"

namespace kb {
namespace server {

namespace {

std::string Errno() {
  return std::string(::strerror(errno));
}

}  // namespace

Status ReadFrame(int fd, std::string* payload) {
  unsigned char header[4];
  ssize_t got = ReadFully(fd, header, sizeof(header));
  if (got == 0) return Status::Aborted("connection closed");
  if (got < 0) return Status::IOError("read header: " + Errno());
  if (got < static_cast<ssize_t>(sizeof(header))) {
    return Status::IOError("torn frame header");
  }
  uint32_t length = (static_cast<uint32_t>(header[0]) << 24) |
                    (static_cast<uint32_t>(header[1]) << 16) |
                    (static_cast<uint32_t>(header[2]) << 8) |
                    static_cast<uint32_t>(header[3]);
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument("frame length " + std::to_string(length) +
                                   " exceeds limit");
  }
  payload->resize(length);
  if (length == 0) return Status::OK();
  got = ReadFully(fd, payload->data(), length);
  if (got < 0) return Status::IOError("read payload: " + Errno());
  if (got < static_cast<ssize_t>(length)) {
    return Status::IOError("torn frame payload");
  }
  return Status::OK();
}

Status WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::IOError("frame too large to send");
  }
  uint32_t length = static_cast<uint32_t>(payload.size());
  unsigned char header[4] = {
      static_cast<unsigned char>(length >> 24),
      static_cast<unsigned char>(length >> 16),
      static_cast<unsigned char>(length >> 8),
      static_cast<unsigned char>(length),
  };
  // Header and payload are written separately; SendFully guarantees
  // each completes, so frames never interleave within one connection
  // (each connection is owned by exactly one worker at a time), and
  // its MSG_NOSIGNAL turns a hung-up peer into EPIPE, not SIGPIPE.
  if (SendFully(fd, header, sizeof(header)) < 0) {
    return Status::IOError("write header: " + Errno());
  }
  if (!payload.empty() &&
      SendFully(fd, payload.data(), payload.size()) < 0) {
    return Status::IOError("write payload: " + Errno());
  }
  return Status::OK();
}

std::string ErrorResponse(const std::string& error,
                          const std::string& message) {
  Json response = Json::Object();
  response.Set("status", Json::Str("error"));
  response.Set("error", Json::Str(error));
  response.Set("message", Json::Str(message));
  return response.Dump();
}

std::string OverloadedResponse(int retry_after_ms) {
  Json response = Json::Object();
  response.Set("status", Json::Str("overloaded"));
  response.Set("error", Json::Str("overloaded"));
  response.Set("retry_after_ms", Json::Number(retry_after_ms));
  return response.Dump();
}

std::string ReadNumber(const Json& request, const std::string& key, double lo,
                       double hi, double* value) {
  const Json& field = request[key];
  if (!field.is_number()) return std::string();
  const double v = field.as_number();
  if (v >= lo && v <= hi) {
    *value = v;
    return std::string();
  }
  char message[160];
  std::snprintf(message, sizeof(message), "%s %g is outside [%g, %g]",
                key.c_str(), v, lo, hi);
  return ErrorResponse("bad_request", message);
}

}  // namespace server
}  // namespace kb
