// Helpers shared by the observability suites: a minimal loopback HTTP
// client for the introspection server and a structural check of the Chrome
// trace JSON.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>

namespace parcycle {

// Minimal blocking HTTP client: one request, read to EOF (the server always
// answers Connection: close). Returns the full response text, "" on socket
// failure.
inline std::string raw_round_trip(std::uint16_t port,
                                  const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

inline std::string http_get(std::uint16_t port, const std::string& path,
                            int* status = nullptr) {
  const std::string response = raw_round_trip(
      port, "GET " + path + " HTTP/1.1\r\nHost: test\r\n\r\n");
  if (status != nullptr) {
    *status = 0;
    if (response.rfind("HTTP/1.1 ", 0) == 0 && response.size() >= 12) {
      *status = std::atoi(response.c_str() + 9);
    }
  }
  const std::size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

// Minimal structural JSON check (no parser dependency): balanced braces and
// brackets outside strings, and the expected top-level key.
inline void expect_balanced_json(const std::string& json) {
  ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);
  long braces = 0;
  long brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

}  // namespace parcycle
