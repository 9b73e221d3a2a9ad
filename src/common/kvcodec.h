// Flat key=value line codec shared by the WAL adopters (jobmon records,
// estimator samples, steering's recovery journal): space-separated
// `key=value` tokens with the delimiter characters percent-escaped, so
// arbitrary strings round-trip through one human-greppable line.
#pragma once

#include <map>
#include <string>

#include "common/status.h"

namespace gae::kv {

/// Percent-escapes '=', '%' and every whitespace byte (' ', '\t', '\n',
/// '\v', '\f', '\r').
std::string escape(const std::string& in);

/// Reverses escape(); INVALID_ARGUMENT on malformed %XX sequences.
Result<std::string> unescape(const std::string& in);

/// Encodes a map as "k1=v1 k2=v2 ..." (keys in map order, both escaped).
std::string encode(const std::map<std::string, std::string>& fields);

/// Parses a line written by encode(). INVALID_ARGUMENT on malformed tokens.
Result<std::map<std::string, std::string>> decode(const std::string& line);

}  // namespace gae::kv
