// Session authentication for Clarens hosts.
//
// The paper's Clarens provided "a common set of services for authentication
// [and] access control". Here: users register with a shared secret, login
// mints a session token with an expiry, and services resolve tokens back to
// user names on each call.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "clarens/credentials.h"
#include "common/clock.h"
#include "common/status.h"

namespace gae::clarens {

struct AuthOptions {
  /// Sessions expire this many seconds after login (sliding on use).
  double session_ttl_seconds = 3600.0;
};

/// Thread-safe: a host's RPC workers log in, authenticate and log out
/// concurrently.
class AuthService {
 public:
  explicit AuthService(const Clock& clock, AuthOptions options = {});

  /// Registers a user; ALREADY_EXISTS on duplicates.
  Status register_user(const std::string& user, const std::string& secret);

  /// Verifies the secret and mints a session token.
  Result<std::string> login(const std::string& user, const std::string& secret);

  /// Trusts a certificate authority for certificate-based logins.
  void trust(const CertificateAuthority* ca) { ca_ = ca; }

  /// GSI-style login: verifies the certificate chain against the trusted CA
  /// and mints a session for the certificate's CN. No password registration
  /// is required — the grid identity is the credential.
  Result<std::string> login_with_chain(const std::vector<Certificate>& chain);

  /// Invalidates a session; NOT_FOUND for unknown tokens.
  Status logout(const std::string& token);

  /// Resolves a token to its user; UNAUTHENTICATED when unknown or expired.
  /// Valid use slides the expiry forward.
  Result<std::string> authenticate(const std::string& token);

  std::size_t active_sessions() const;

 private:
  struct Session {
    std::string user;
    SimTime expires_at;
  };

  const Clock& clock_;
  AuthOptions options_;
  const CertificateAuthority* ca_ = nullptr;
  /// Guards secrets_ and sessions_.
  mutable std::mutex mutex_;
  std::map<std::string, std::string> secrets_;  // user -> secret
  mutable std::map<std::string, Session> sessions_;
};

}  // namespace gae::clarens
