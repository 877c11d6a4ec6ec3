// Adversarial input for the wire layer: the deframer and codec must
// treat the byte stream as hostile. Corrupt hello magic/version,
// frame lengths past the 1 MiB cap, delivery one byte at a time,
// truncation at every possible offset, and raw-socket garbage against
// a live server — none of it may crash, hang, or smuggle a frame
// through; the worst allowed outcome is a dead connection.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "svc/service.hpp"

namespace elect {
namespace {

using net::wire::frame_reader;

std::vector<std::uint8_t> length_prefix(std::uint32_t length) {
  std::vector<std::uint8_t> bytes(4);
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(length >> (8 * i));
  }
  return bytes;
}

// ---------------------------------------------------------------------
// frame_reader vs hostile lengths.

TEST(WireAdversarial, LengthAboveCapPoisonsTheReaderForever) {
  frame_reader reader;
  const auto prefix = length_prefix(net::wire::max_frame_bytes + 1);
  EXPECT_FALSE(reader.feed(prefix.data(), prefix.size()));
  EXPECT_TRUE(reader.poisoned());
  EXPECT_FALSE(reader.next().has_value());
  // Even well-formed bytes afterwards must be refused: the stream is
  // unsynchronized, resyncing would be guessing.
  const auto frame =
      net::wire::encode_request(net::wire::make_hello_request());
  EXPECT_FALSE(reader.feed(frame.data(), frame.size()));
  EXPECT_FALSE(reader.next().has_value());
}

TEST(WireAdversarial, LengthExactlyAtCapIsFramedNotFatal) {
  frame_reader reader;
  std::vector<std::uint8_t> stream = length_prefix(net::wire::max_frame_bytes);
  stream.resize(4 + net::wire::max_frame_bytes, 0xAB);
  ASSERT_TRUE(reader.feed(stream.data(), stream.size()));
  const auto body = reader.next();
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(body->size(), net::wire::max_frame_bytes);
  // The body is garbage — the *codec* rejects it, the framing does not.
  EXPECT_FALSE(net::wire::decode_request(*body).has_value());
  EXPECT_FALSE(reader.poisoned());
}

TEST(WireAdversarial, MaximumLengthPrefixIsRejectedWithoutAllocating) {
  frame_reader reader;
  const auto prefix = length_prefix(0xFFFFFFFFu);
  EXPECT_FALSE(reader.feed(prefix.data(), prefix.size()));
  EXPECT_TRUE(reader.poisoned());
}

// ---------------------------------------------------------------------
// One byte at a time, and splits at every offset.

TEST(WireAdversarial, ByteAtATimeDeliveryReassemblesExactly) {
  net::wire::response a;
  a.id = 7;
  a.kind = net::wire::op::metrics;
  a.result = net::wire::status::ok;
  a.body = std::string(300, 'x');
  net::wire::response b = net::wire::make_hello_response(42);
  b.id = 8;

  std::vector<std::uint8_t> stream;
  for (const auto& r : {a, b}) {
    const auto frame = net::wire::encode_response(r);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  frame_reader reader;
  std::vector<net::wire::response> seen;
  for (const std::uint8_t byte : stream) {
    ASSERT_TRUE(reader.feed(&byte, 1));
    while (auto body = reader.next()) {
      const auto decoded = net::wire::decode_response(*body);
      ASSERT_TRUE(decoded.has_value());
      seen.push_back(*decoded);
    }
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].id, 7u);
  EXPECT_EQ(seen[0].body, a.body);
  EXPECT_EQ(seen[1].id, 8u);
  EXPECT_EQ(seen[1].epoch, 42u);
}

TEST(WireAdversarial, SplitAtEveryOffsetYieldsTheSameFrames) {
  net::wire::request a;
  a.id = 1;
  a.kind = net::wire::op::try_acquire;
  a.key = "k/split";
  net::wire::request b;
  b.id = 2;
  b.kind = net::wire::op::release_fenced;
  b.key = "k/other";
  b.epoch = 5;

  std::vector<std::uint8_t> stream;
  for (const auto& r : {a, b}) {
    const auto frame = net::wire::encode_request(r);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    frame_reader reader;
    std::size_t frames = 0;
    if (split > 0) {
      ASSERT_TRUE(reader.feed(stream.data(), split));
    }
    while (reader.next().has_value()) ++frames;
    // A truncated prefix must never yield a frame the full stream
    // would not: at most the frames wholly contained in the prefix.
    if (split < stream.size()) {
      ASSERT_TRUE(
          reader.feed(stream.data() + split, stream.size() - split));
    }
    while (auto body = reader.next()) {
      ASSERT_TRUE(net::wire::decode_request(*body).has_value());
      ++frames;
    }
    EXPECT_EQ(frames, 2u) << "split at " << split;
    EXPECT_FALSE(reader.poisoned());
  }
}

// ---------------------------------------------------------------------
// Codec truncation at every offset.

TEST(WireAdversarial, TruncatedRequestBodyNeverDecodes) {
  net::wire::request r;
  r.id = 0xDEADBEEFCAFEull;
  r.kind = net::wire::op::try_acquire_for;
  r.key = "locks/truncate-me";
  r.epoch = 17;
  r.timeout_ms = 1234;
  const auto frame = net::wire::encode_request(r);
  const std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
  for (std::size_t keep = 0; keep < body.size(); ++keep) {
    const std::vector<std::uint8_t> cut(body.begin(),
                                        body.begin() +
                                            static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(net::wire::decode_request(cut).has_value())
        << "decoded a request from a " << keep << "-byte prefix";
  }
  EXPECT_TRUE(net::wire::decode_request(body).has_value());
}

TEST(WireAdversarial, TruncatedResponseBodyNeverDecodes) {
  net::wire::response r;
  r.id = 99;
  r.kind = net::wire::op::event;
  r.result = net::wire::status::ok;
  r.flags = 2;
  r.epoch = 3;
  r.body = "watched/key";
  const auto frame = net::wire::encode_response(r);
  const std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
  for (std::size_t keep = 0; keep < body.size(); ++keep) {
    const std::vector<std::uint8_t> cut(body.begin(),
                                        body.begin() +
                                            static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(net::wire::decode_response(cut).has_value())
        << "decoded a response from a " << keep << "-byte prefix";
  }
  EXPECT_TRUE(net::wire::decode_response(body).has_value());
}

// ---------------------------------------------------------------------
// Hello corruption and the event push frame.

TEST(WireAdversarial, CorruptHelloMagicOrVersionIsRejected) {
  net::wire::request good = net::wire::make_hello_request();
  ASSERT_TRUE(net::wire::hello_version_ok(good));

  net::wire::request bad_magic = good;
  bad_magic.epoch ^= 0x0100000000ull;  // flip a magic bit
  EXPECT_FALSE(net::wire::hello_version_ok(bad_magic));

  net::wire::request bad_version = good;
  bad_version.epoch ^= 1;  // version field lives in the low bits
  EXPECT_FALSE(net::wire::hello_version_ok(bad_version));

  net::wire::request wrong_op = good;
  wrong_op.kind = net::wire::op::try_acquire;
  EXPECT_FALSE(net::wire::hello_version_ok(wrong_op));
}

TEST(WireAdversarial, EventFramesRoundTripAndRejectMalformedKinds) {
  svc::watch_event e;
  e.key = "watched/key";
  e.epoch = 41;
  e.kind = svc::transition::expired;
  e.session = -1;
  const net::wire::response frame = net::wire::make_event(e);
  const auto parsed = net::wire::parse_event(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key, e.key);
  EXPECT_EQ(parsed->epoch, e.epoch);
  EXPECT_EQ(parsed->kind, e.kind);
  EXPECT_EQ(parsed->session, -1);

  net::wire::response bad_kind = frame;
  bad_kind.flags = 7;  // not a transition value
  EXPECT_FALSE(net::wire::parse_event(bad_kind).has_value());

  net::wire::response not_event = frame;
  not_event.kind = net::wire::op::metrics;
  EXPECT_FALSE(net::wire::parse_event(not_event).has_value());
}

// ---------------------------------------------------------------------
// A live server vs a raw hostile socket.

class raw_socket {
 public:
  explicit raw_socket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~raw_socket() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Drain until EOF; true when the peer closed the connection.
  [[nodiscard]] bool closed_by_peer(
      std::vector<std::uint8_t>* received = nullptr) {
    std::uint8_t buffer[4096];
    for (;;) {
      const ssize_t got = ::recv(fd_, buffer, sizeof buffer, 0);
      if (got == 0) return true;
      if (got < 0) return errno == EINTR ? closed_by_peer(received) : false;
      if (received != nullptr) {
        received->insert(received->end(), buffer, buffer + got);
      }
    }
  }

 private:
  int fd_ = -1;
};

struct server_rig {
  server_rig()
      : service(svc::service_config{.nodes = 2, .shards = 2, .seed = 3}),
        server(service, net::server_config{}) {}
  svc::service service;
  net::server server;
};

TEST(WireAdversarial, ServerKillsConnectionOnOversizedFrame) {
  server_rig rig;
  ASSERT_TRUE(rig.server.listening());
  raw_socket attacker(rig.server.port());
  ASSERT_TRUE(attacker.ok());
  attacker.send_bytes(length_prefix(net::wire::max_frame_bytes + 1));
  EXPECT_TRUE(attacker.closed_by_peer());
  EXPECT_GE(rig.server.report().protocol_errors, 1u);
  // The server survives: a well-behaved client still gets service.
  net::client fine("127.0.0.1", rig.server.port());
  ASSERT_TRUE(fine.connected());
  EXPECT_TRUE(fine.try_acquire("still/alive").won);
}

TEST(WireAdversarial, ServerRejectsRequestsBeforeHello) {
  server_rig rig;
  ASSERT_TRUE(rig.server.listening());
  raw_socket sneaky(rig.server.port());
  ASSERT_TRUE(sneaky.ok());
  net::wire::request premature;
  premature.id = 9;
  premature.kind = net::wire::op::acquire;
  premature.key = "no/handshake";
  sneaky.send_bytes(net::wire::encode_request(premature));
  std::vector<std::uint8_t> answer;
  EXPECT_TRUE(sneaky.closed_by_peer(&answer));
  // The one-shot bad_request answer (id echoed) precedes the close.
  net::wire::frame_reader reader;
  ASSERT_TRUE(reader.feed(answer.data(), answer.size()));
  const auto body = reader.next();
  ASSERT_TRUE(body.has_value());
  const auto decoded = net::wire::decode_response(*body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->result, net::wire::status::bad_request);
}

TEST(WireAdversarial, ServerRejectsStaleProtocolVersion) {
  server_rig rig;
  ASSERT_TRUE(rig.server.listening());
  raw_socket old_peer(rig.server.port());
  ASSERT_TRUE(old_peer.ok());
  net::wire::request hello = net::wire::make_hello_request();
  hello.id = 1;
  hello.epoch ^= 3;  // pretend to speak another version
  old_peer.send_bytes(net::wire::encode_request(hello));
  std::vector<std::uint8_t> answer;
  EXPECT_TRUE(old_peer.closed_by_peer(&answer));
  net::wire::frame_reader reader;
  ASSERT_TRUE(reader.feed(answer.data(), answer.size()));
  const auto body = reader.next();
  ASSERT_TRUE(body.has_value());
  const auto decoded = net::wire::decode_response(*body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->result, net::wire::status::bad_request);
}

}  // namespace
}  // namespace elect
