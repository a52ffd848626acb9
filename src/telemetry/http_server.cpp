#include "telemetry/http_server.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#define PPO_HAVE_SOCKETS 1
#endif

namespace ppo::telemetry {

#if defined(PPO_HAVE_SOCKETS)

namespace {

#if defined(MSG_NOSIGNAL)
constexpr int kSendFlags = MSG_NOSIGNAL;  // EPIPE instead of SIGPIPE
#else
constexpr int kSendFlags = 0;
#endif

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 400: return "Bad Request";
    default: return "OK";
  }
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, kSendFlags);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer went away; a lost scrape is not an error
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

HttpServer::HttpServer(std::uint16_t port, HttpHandler handler)
    : handler_(std::move(handler)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("telemetry: socket() failed: " +
                             std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("telemetry: cannot listen on port " +
                             std::to_string(port) + ": " + err);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0)
    port_ = ntohs(bound.sin_port);
  else
    port_ = port;

  thread_ = std::thread([this] { serve_loop(); });
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  // shutdown() wakes the blocking accept(); close() alone is not
  // guaranteed to on all platforms. The descriptor is closed and reset
  // only once the accept thread has exited: serve_loop() reads
  // listen_fd_, and closing first would let it race the reset or
  // accept() on a closed descriptor whose number was already reused.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::serve_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or broken): exit the loop
    }
    // A stalled client must not wedge the sequential loop.
    timeval timeout{};
    timeout.tv_sec = 2;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    handle_connection(fd);
    ::close(fd);
  }
}

void HttpServer::handle_connection(int fd) {
  // Read until the end of the request head (scrapes have no body);
  // 8 KiB is far beyond any scraper's request line + headers.
  std::string request;
  char buf[1024];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;  // not even a request line

  HttpResponse response;
  const std::string line = request.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response = {400, "text/plain; charset=utf-8", "bad request\n"};
  } else if (line.substr(0, sp1) != "GET") {
    response = {405, "text/plain; charset=utf-8", "GET only\n"};
  } else {
    std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    response = handler_(path);
  }

  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     status_text(response.status) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  head += "Connection: close\r\n\r\n";
  send_all(fd, head);
  send_all(fd, response.body);
  requests_.fetch_add(1, std::memory_order_relaxed);
}

#else  // !PPO_HAVE_SOCKETS

HttpServer::HttpServer(std::uint16_t, HttpHandler handler)
    : handler_(std::move(handler)) {
  throw std::runtime_error(
      "telemetry: HTTP exposition needs POSIX sockets on this platform");
}
HttpServer::~HttpServer() = default;
void HttpServer::stop() {}
void HttpServer::serve_loop() {}
void HttpServer::handle_connection(int) {}

#endif

}  // namespace ppo::telemetry
