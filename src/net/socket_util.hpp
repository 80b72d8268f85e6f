// Thin POSIX socket helpers for the net backend: loopback TCP and
// Unix-domain listeners, retrying dialers (the fleet's processes start
// concurrently, so a dialer may race its peer's bind), and fd utilities.
// All functions throw hadfl::CommError on unrecoverable OS errors.
#pragma once

#include <cstdint>
#include <string>

namespace hadfl::net {

void set_nonblocking(int fd);
void set_cloexec(int fd, bool on);
// Disables Nagle on a TCP socket. No-op (EOPNOTSUPP ignored) on AF_UNIX,
// so the accept path can call it without knowing the transport kind.
void set_tcp_nodelay(int fd);
void close_fd(int fd) noexcept;

struct TcpListener {
  int fd = -1;
  std::uint16_t port = 0;  ///< the kernel-assigned ephemeral port
};

/// Binds a loopback (127.0.0.1) listener on an ephemeral port.
TcpListener make_tcp_listener();

/// Binds a Unix-domain listener at `path` (unlinking any stale socket).
int make_uds_listener(const std::string& path);

/// Connects to 127.0.0.1:`port`, retrying refused connections until
/// `timeout_s` (the listener is in another just-started process). Returns a
/// connected blocking fd. `retries`, when given, accumulates the number of
/// re-dial attempts.
int dial_tcp(std::uint16_t port, double timeout_s,
             std::uint64_t* retries = nullptr);

/// Connects to the Unix-domain socket at `path`, retrying while the peer
/// has not bound yet. Returns a connected blocking fd.
int dial_uds(const std::string& path, double timeout_s,
             std::uint64_t* retries = nullptr);

/// Writes all of `data` to a blocking socket; throws CommError on failure.
/// A reset peer fails the write (EPIPE) and never raises SIGPIPE.
void write_all(int fd, const void* data, std::size_t n);

/// Creates a unique temporary directory for Unix-domain sockets
/// (/tmp/hadfl-net-XXXXXX). The caller removes it when done.
std::string make_socket_dir();

/// Best-effort recursive removal of a socket directory.
void remove_socket_dir(const std::string& dir) noexcept;

/// Removes leftover /tmp/hadfl-net-* directories owned by this user whose
/// mtime is at least `max_age_s` old — a run killed before ~ProcessFleet
/// (SIGKILL, _exit, crash) leaks its dir, and mkdtemp never reuses the
/// name, so they accumulate forever. Dirs younger than the threshold are
/// never touched (a concurrent run's live dir must survive the sweep).
/// Returns the number of directories removed.
std::size_t sweep_stale_socket_dirs(double max_age_s = 3600.0) noexcept;

}  // namespace hadfl::net
