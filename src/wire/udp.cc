#include "wire/udp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

namespace ppsim::wire {

namespace {

sockaddr_in make_sockaddr(net::IpAddress ip, std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(ip.value());
  return sa;
}

}  // namespace

UdpTransport::UdpTransport(Config config) : config_(config) {
  assert(config_.port != 0 && "a deployment must agree on a shared port");
}

UdpTransport::~UdpTransport() {
  for (auto& [ip, sock] : sockets_) {
    if (sock.fd >= 0) ::close(sock.fd);
  }
}

void UdpTransport::attach(net::IpAddress ip, net::IspId /*isp*/,
                          net::IspCategory /*category*/,
                          const net::AccessProfile& /*profile*/,
                          Handler handler) {
  assert(!ip.is_unspecified());
  auto [it, inserted] = sockets_.try_emplace(ip);
  assert(inserted && "IP already attached");
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  assert(fd >= 0 && "socket() failed");
  // Data bursts (several 5.6 kB DataReplies back to back) overflow the
  // default buffers long before the protocol is actually overloaded.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kSocketBufferBytes,
               sizeof(kSocketBufferBytes));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kSocketBufferBytes,
               sizeof(kSocketBufferBytes));
  sockaddr_in sa = make_sockaddr(ip, config_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    // Loud on every build: a node that cannot bind its address has no
    // recovery path, and an assert would vanish under NDEBUG, leaving the
    // process running deaf. The smoke harness keys its port-retry logic
    // off this message.
    std::fprintf(stderr,
                 "ppsim-wire: bind(%s:%u) failed: %s "
                 "(address not local or port in use)\n",
                 ip.to_string().c_str(), unsigned{config_.port},
                 std::strerror(errno));
    ::close(fd);
    sockets_.erase(it);
    std::abort();
  }
  it->second.fd = fd;
  it->second.handler = std::move(handler);
}

void UdpTransport::detach(net::IpAddress ip) {
  auto it = sockets_.find(ip);
  if (it == sockets_.end()) return;
  if (it->second.fd >= 0) ::close(it->second.fd);
  sockets_.erase(it);
}

bool UdpTransport::attached(net::IpAddress ip) const {
  return sockets_.contains(ip);
}

bool UdpTransport::send(net::IpAddress from, net::IpAddress to,
                        proto::Message payload, std::uint64_t wire_bytes) {
  auto sit = sockets_.find(from);
  if (sit == sockets_.end()) return false;
  ++stats_.packets_sent;
  stats_.bytes_sent += wire_bytes;

  std::vector<std::uint8_t> datagram;
  if (encode_message(payload, config_.epoch, &datagram) != WireError::kOk) {
    ++stats_.uplink_drops;
    return false;
  }
  assert(datagram.size() + kIpUdpHeader == wire_bytes &&
         "caller must pass proto::wire_size(payload)");

  sockaddr_in dst = make_sockaddr(to, config_.port);
  const ssize_t n =
      ::sendto(sit->second.fd, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&dst), sizeof(dst));
  if (n >= 0) return true;
  if (errno == ECONNREFUSED) {
    // A previous datagram to this peer drew an ICMP port-unreachable: the
    // destination is gone, which is the sim's dead-destination bucket. The
    // packet did leave our uplink, so the send itself "succeeds".
    ++stats_.dead_destination_drops;
    return true;
  }
  // EAGAIN/ENOBUFS (full socket buffer) and everything else the sender can
  // observe locally: the sim's uplink-overflow bucket.
  ++stats_.uplink_drops;
  return false;
}

void UdpTransport::note_rx_error(WireError e) {
  switch (e) {
    case WireError::kTruncated: ++rx_errors_.truncated; break;
    case WireError::kBadMagic: ++rx_errors_.bad_magic; break;
    case WireError::kBadVersion: ++rx_errors_.bad_version; break;
    case WireError::kBadEpoch: ++rx_errors_.bad_epoch; break;
    case WireError::kBadTag: ++rx_errors_.bad_tag; break;
    case WireError::kBadLength: ++rx_errors_.bad_length; break;
    case WireError::kBadAux: ++rx_errors_.bad_aux; break;
    case WireError::kBadReserved: ++rx_errors_.bad_reserved; break;
    case WireError::kOk:
    case WireError::kUnencodable:
      break;
  }
}

int UdpTransport::poll(int timeout_ms) {
  if (sockets_.empty()) return 0;
  std::vector<pollfd> fds;
  std::vector<net::IpAddress> ips;
  fds.reserve(sockets_.size());
  ips.reserve(sockets_.size());
  for (const auto& [ip, sock] : sockets_) {
    fds.push_back(pollfd{sock.fd, POLLIN, 0});
    ips.push_back(ip);
  }
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) return 0;

  int enqueued = 0;
  std::uint8_t buf[kMaxDatagram];
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & POLLIN) == 0) continue;
    for (;;) {
      sockaddr_in src{};
      socklen_t src_len = sizeof(src);
      const ssize_t n =
          ::recvfrom(fds[i].fd, buf, sizeof(buf), 0,
                     reinterpret_cast<sockaddr*>(&src), &src_len);
      if (n < 0) break;  // EAGAIN: drained (other errors: next poll retries)
      DecodeResult decoded =
          decode_message(buf, static_cast<std::size_t>(n), config_.epoch);
      if (decoded.error != WireError::kOk) {
        note_rx_error(decoded.error);
        continue;
      }
      if (rx_queue_.size() >= config_.rx_queue_limit) {
        // The wire analogue of the sim's downlink tail-drop: the node is
        // not consuming fast enough.
        ++stats_.downlink_drops;
        continue;
      }
      rx_queue_.push_back(RxEntry{
          net::IpAddress(ntohl(src.sin_addr.s_addr)), ips[i],
          std::move(decoded.message),
          static_cast<std::uint64_t>(n) + kIpUdpHeader});
      ++enqueued;
    }
  }
  return enqueued;
}

int UdpTransport::dispatch(sim::Time now, int max_deliveries) {
  int delivered = 0;
  while (delivered < max_deliveries && !rx_queue_.empty()) {
    RxEntry entry = std::move(rx_queue_.front());
    rx_queue_.pop_front();
    auto it = sockets_.find(entry.to);
    if (it == sockets_.end() || !it->second.handler) {
      // Detached between receive and dispatch (peer left): the packet dies
      // exactly where the sim's dead-destination bucket says it does.
      ++stats_.dead_destination_drops;
      continue;
    }
    ++stats_.packets_delivered;
    Delivery delivery{entry.from, entry.to, std::move(entry.message),
                      entry.wire_bytes, now};
    if (tap_) tap_(delivery);
    it->second.handler(delivery);
    ++delivered;
  }
  return delivered;
}

}  // namespace ppsim::wire
