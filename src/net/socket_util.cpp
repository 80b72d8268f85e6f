#include "net/socket_util.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <thread>

#include "common/error.hpp"

namespace hadfl::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw CommError("net: " + what + ": " + std::strerror(errno));
}

int tcp_socket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

sockaddr_un uds_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  HADFL_CHECK_ARG(path.size() < sizeof(addr.sun_path),
                  "unix socket path too long: " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

constexpr double kDialRetrySleepS = 0.02;

/// Dials with retry while the peer's listener does not exist yet.
template <typename MakeSocket, typename Connect>
int dial_retry(double timeout_s, const std::string& what,
               std::uint64_t* retries, const MakeSocket& make_socket,
               const Connect& connect_fn) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    const int fd = make_socket();
    if (connect_fn(fd) == 0) return fd;
    const int err = errno;
    close_fd(fd);
    const bool retryable = err == ECONNREFUSED || err == ENOENT ||
                           err == ECONNRESET || err == EAGAIN;
    if (!retryable || std::chrono::steady_clock::now() >= deadline) {
      errno = err;
      throw_errno("connect to " + what);
    }
    if (retries != nullptr) ++*retries;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kDialRetrySleepS));
  }
}

}  // namespace

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_cloexec(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags < 0 ||
      ::fcntl(fd, F_SETFD,
              on ? (flags | FD_CLOEXEC) : (flags & ~FD_CLOEXEC)) < 0) {
    throw_errno("fcntl(FD_CLOEXEC)");
  }
}

void close_fd(int fd) noexcept {
  if (fd >= 0) ::close(fd);
}

TcpListener make_tcp_listener() {
  const int fd = tcp_socket();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // kernel-assigned
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close_fd(fd);
    throw_errno("bind(loopback)");
  }
  if (::listen(fd, SOMAXCONN) < 0) {
    close_fd(fd);
    throw_errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    close_fd(fd);
    throw_errno("getsockname");
  }
  return TcpListener{fd, ntohs(addr.sin_port)};
}

int make_uds_listener(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  ::unlink(path.c_str());
  sockaddr_un addr = uds_addr(path);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close_fd(fd);
    throw_errno("bind " + path);
  }
  if (::listen(fd, SOMAXCONN) < 0) {
    close_fd(fd);
    throw_errno("listen " + path);
  }
  return fd;
}

int dial_tcp(std::uint16_t port, double timeout_s, std::uint64_t* retries) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return dial_retry(
      timeout_s, "127.0.0.1:" + std::to_string(port), retries, tcp_socket,
      [&addr](int fd) {
        return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr));
      });
}

int dial_uds(const std::string& path, double timeout_s,
             std::uint64_t* retries) {
  sockaddr_un addr = uds_addr(path);
  return dial_retry(
      timeout_s, path, retries,
      [] {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) throw_errno("socket(AF_UNIX)");
        return fd;
      },
      [&addr](int fd) {
        return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr));
      });
}

void write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that reset the connection fails the send with
    // EPIPE instead of raising SIGPIPE, which would kill this process.
    const ssize_t written = ::send(fd, p, n, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    p += written;
    n -= static_cast<std::size_t>(written);
  }
}

std::string make_socket_dir() {
  char templ[] = "/tmp/hadfl-net-XXXXXX";
  if (::mkdtemp(templ) == nullptr) throw_errno("mkdtemp");
  return std::string(templ);
}

void remove_socket_dir(const std::string& dir) noexcept {
  DIR* d = ::opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

std::size_t sweep_stale_socket_dirs(double max_age_s) noexcept {
  DIR* d = ::opendir("/tmp");
  if (d == nullptr) return 0;
  const std::time_t now = std::time(nullptr);
  std::size_t removed = 0;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.rfind("hadfl-net-", 0) != 0) continue;
    const std::string path = "/tmp/" + name;
    struct stat st{};
    if (::lstat(path.c_str(), &st) != 0) continue;
    if (!S_ISDIR(st.st_mode)) continue;
    if (st.st_uid != ::getuid()) continue;  // another user's run
    const double age_s = std::difftime(now, st.st_mtime);
    if (age_s < max_age_s) continue;
    remove_socket_dir(path);
    ++removed;
  }
  ::closedir(d);
  return removed;
}

}  // namespace hadfl::net
