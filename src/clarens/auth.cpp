#include "clarens/auth.h"

#include "common/id.h"

namespace gae::clarens {

AuthService::AuthService(const Clock& clock, AuthOptions options)
    : clock_(clock), options_(options) {}

Status AuthService::register_user(const std::string& user, const std::string& secret) {
  if (user.empty()) return invalid_argument_error("user name must not be empty");
  std::lock_guard<std::mutex> lock(mutex_);
  if (secrets_.count(user)) return already_exists_error("user exists: " + user);
  secrets_[user] = secret;
  return Status::ok();
}

Result<std::string> AuthService::login(const std::string& user, const std::string& secret) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = secrets_.find(user);
  if (it == secrets_.end() || it->second != secret) {
    // One message for both cases: do not reveal which part was wrong.
    return unauthenticated_error("bad user or secret");
  }
  const std::string token = make_token();
  sessions_[token] = {user, clock_.now() + from_seconds(options_.session_ttl_seconds)};
  return token;
}

Result<std::string> AuthService::login_with_chain(const std::vector<Certificate>& chain) {
  if (!ca_) return failed_precondition_error("no trusted certificate authority");
  auto cn = ca_->verify_chain(chain, clock_.now());
  if (!cn.is_ok()) return cn.status();
  if (cn.value().empty()) return permission_denied_error("certificate has no CN");
  const std::string token = make_token();
  std::lock_guard<std::mutex> lock(mutex_);
  sessions_[token] = {cn.value(),
                      clock_.now() + from_seconds(options_.session_ttl_seconds)};
  return token;
}

Status AuthService::logout(const std::string& token) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (sessions_.erase(token) == 0) return not_found_error("no such session");
  return Status::ok();
}

Result<std::string> AuthService::authenticate(const std::string& token) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(token);
  if (it == sessions_.end()) return unauthenticated_error("unknown session token");
  if (clock_.now() > it->second.expires_at) {
    sessions_.erase(it);
    return unauthenticated_error("session expired");
  }
  it->second.expires_at = clock_.now() + from_seconds(options_.session_ttl_seconds);
  return it->second.user;
}

std::size_t AuthService::active_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t live = 0;
  const SimTime now = clock_.now();
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now > it->second.expires_at) {
      it = sessions_.erase(it);
    } else {
      ++live;
      ++it;
    }
  }
  return live;
}

}  // namespace gae::clarens
