#ifndef KBFORGE_SERVER_PROTOCOL_H_
#define KBFORGE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "server/json.h"
#include "util/status.h"

namespace kb {
namespace server {

/// Wire framing for the serving protocol: every message is a 4-byte
/// big-endian payload length followed by that many bytes of UTF-8 JSON.
/// The length prefix is bounded (kMaxFrameBytes) so a malicious or
/// corrupt prefix cannot make the receiver allocate gigabytes — an
/// oversized prefix fails the read with InvalidArgument and the
/// connection is dropped.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;  // 16 MiB

/// Reads one frame into `payload`.
///   OK              frame read completely,
///   Aborted         clean EOF before any byte (peer hung up idle),
///   InvalidArgument length prefix exceeds kMaxFrameBytes,
///   IOError         torn frame (EOF mid-message) or socket error.
Status ReadFrame(int fd, std::string* payload);

/// Writes one frame. IOError on any socket failure (incl. payloads
/// over kMaxFrameBytes, which the peer would refuse anyway).
Status WriteFrame(int fd, const std::string& payload);

/// {"status":"error","error":<error>,"message":<message>}: every
/// request-level failure (bad_request, bad_frame, internal, ...).
std::string ErrorResponse(const std::string& error, const std::string& message);

/// {"status":"overloaded","error":"overloaded","retry_after_ms":R}:
/// what a shed request or a shed accept is told before its connection
/// closes.
std::string OverloadedResponse(int retry_after_ms);

/// Largest integer a JSON number (an IEEE double) carries exactly; the
/// upper bound for counts and epochs read off the wire.
inline constexpr double kMaxWireInteger = 9007199254740992.0;  // 2^53

/// Range-checked read of the optional number `key` of `request`, so no
/// handler casts a network double it has not bounded. Absent (or not a
/// number): `*value` is left as it is. In [lo, hi]: stored in `*value`.
/// Otherwise nothing is stored and the bad_request response to send is
/// returned; the result is empty whenever the read succeeded.
std::string ReadNumber(const Json& request, const std::string& key, double lo,
                       double hi, double* value);

}  // namespace server
}  // namespace kb

#endif  // KBFORGE_SERVER_PROTOCOL_H_
