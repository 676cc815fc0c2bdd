// Raw loopback TCP connection speaking the server's line protocol, the
// same bytes `gpuperf client` sends.  Only serve-hot needs it: it polls
// four connections from one thread, which serve::TcpClient's blocking
// request() cannot do.  Every other request goes through TcpClient.
#pragma once

#include <string>

namespace perfbench {

class Connection {
 public:
  explicit Connection(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  /// Write one request line (newline appended by the caller).
  void send(const std::string& line);
  /// Read whatever bytes are ready (after poll reported POLLIN);
  /// throws when the server closed the connection.
  void receive();
  /// Move the next complete response line (without its newline) into
  /// `line`; false when none is buffered yet.
  bool pop_line(std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t consumed_ = 0;
};

}  // namespace perfbench
