#include "loopback.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {
[[noreturn]] void sys_fail(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}
}  // namespace

Connection::Connection(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) sys_fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    sys_fail("connect");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::send(const std::string& line) {
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      sys_fail("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Connection::receive() {
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  char chunk[65536];
  ssize_t n;
  do n = ::recv(fd_, chunk, sizeof chunk, 0);
  while (n < 0 && errno == EINTR);
  if (n < 0) sys_fail("recv");
  if (n == 0) throw std::runtime_error("server closed the connection");
  buffer_.append(chunk, static_cast<std::size_t>(n));
}

bool Connection::pop_line(std::string& line) {
  const std::size_t nl = buffer_.find('\n', consumed_);
  if (nl == std::string::npos) return false;
  line.assign(buffer_, consumed_, nl - consumed_);
  consumed_ = nl + 1;
  return true;
}

}  // namespace perfbench
