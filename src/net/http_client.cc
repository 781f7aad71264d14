#include "net/http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/string_util.h"
#include "net/http_parser.h"

namespace tegra {
namespace net {

HttpClient::HttpClient(std::string host, int port, int timeout_ms)
    : host_(std::move(host)), port_(port), timeout_ms_(timeout_ms) {}

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  leftover_.clear();
}

Status HttpClient::Connect() {
  if (fd_ >= 0) return Status::OK();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket(): ") + std::strerror(errno));
  }
  struct timeval tv;
  tv.tv_sec = timeout_ms_ / 1000;
  tv.tv_usec = (timeout_ms_ % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host_);
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("connect(" + host_ + ":" + std::to_string(port_) +
                           "): " + err);
  }
  fd_ = fd;
  ++connects_;
  return Status::OK();
}

Status HttpClient::SendAll(std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError(std::string("send(): ") + std::strerror(errno));
  }
  return Status::OK();
}

Result<ClientResponse> HttpClient::ReadResponse() {
  std::string buf = std::move(leftover_);
  leftover_.clear();
  char chunk[16384];

  // Accumulate until the full head is in, then until the framed body is in.
  size_t head_end = buf.find("\r\n\r\n");
  while (head_end == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      Close();
      return Status::IOError("connection closed before response head");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      Close();
      return Status::IOError("recv(): " + err);
    }
    buf.append(chunk, static_cast<size_t>(n));
    head_end = buf.find("\r\n\r\n");
  }

  ClientResponse response;
  const std::string_view head(buf.data(), head_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view status_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  // "HTTP/1.1 NNN Reason"
  const size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > status_line.size()) {
    Close();
    return Status::Corruption("malformed status line: " +
                              std::string(status_line));
  }
  response.status = 0;
  for (size_t i = sp + 1;
       i < status_line.size() && status_line[i] >= '0' &&
       status_line[i] <= '9';
       ++i) {
    response.status = response.status * 10 + (status_line[i] - '0');
  }
  if (response.status < 100 || response.status > 599) {
    Close();
    return Status::Corruption("implausible status in: " +
                              std::string(status_line));
  }

  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    const std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string key = ToLower(line.substr(0, colon));
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    response.headers[std::move(key)] = std::string(value);
  }

  size_t content_length = 0;
  const auto cl = response.headers.find("content-length");
  if (cl != response.headers.end()) {
    for (const char c : cl->second) {
      if (c < '0' || c > '9') {
        Close();
        return Status::Corruption("bad Content-Length: " + cl->second);
      }
      content_length = content_length * 10 + static_cast<size_t>(c - '0');
    }
  }

  buf.erase(0, head_end + 4);
  while (buf.size() < content_length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      Close();
      return Status::IOError("connection closed mid-body");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      Close();
      return Status::IOError("recv(): " + err);
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
  response.body = buf.substr(0, content_length);
  leftover_ = buf.substr(content_length);

  if (ToLower(response.Header("connection")) == "close") Close();
  return response;
}

Result<ClientResponse> HttpClient::RoundTrip(const std::string& raw_request) {
  // One transparent retry: a keep-alive connection the server already timed
  // out looks like send-success/recv-EOF, and the request must be re-sent
  // on a fresh dial.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool reused = fd_ >= 0;
    TEGRA_RETURN_NOT_OK(Connect());
    const Status sent = SendAll(raw_request);
    if (!sent.ok()) {
      Close();
      if (reused && attempt == 0) continue;
      return sent;
    }
    Result<ClientResponse> response = ReadResponse();
    if (response.ok()) return response;
    if (reused && attempt == 0) continue;
    return response;
  }
  return Status::IOError("unreachable");
}

Result<ClientResponse> HttpClient::Get(const std::string& target) {
  return RoundTrip("GET " + target + " HTTP/1.1\r\nHost: " + host_ +
                   "\r\n\r\n");
}

Result<ClientResponse> HttpClient::Post(const std::string& target,
                                        const std::string& body,
                                        const std::string& content_type) {
  return PostWithHeaders(target, body, {}, content_type);
}

Result<ClientResponse> HttpClient::PostWithHeaders(
    const std::string& target, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers,
    const std::string& content_type) {
  std::string request = "POST " + target + " HTTP/1.1\r\nHost: " + host_ +
                        "\r\nContent-Type: " + content_type +
                        "\r\nContent-Length: " + std::to_string(body.size());
  for (const auto& [key, value] : extra_headers) {
    request += "\r\n" + key + ": " + value;
  }
  request += "\r\n\r\n" + body;
  return RoundTrip(request);
}

}  // namespace net
}  // namespace tegra
