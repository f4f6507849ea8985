// CookieGuard's background dataset: cookie name → creator eTLD+1.
//
// Mirrors background.js in the paper's Figure 4: it records the creator of
// every first-party cookie (from script writes relayed by the content
// script, and from HTTP Set-Cookie headers seen via webRequest), and
// answers the read-time filter's lookups in place.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace cg::cookieguard {

class MetadataStore {
 public:
  /// Records (or re-attributes) a cookie's creator. HTTP re-sets overwrite
  /// the recorded creator — deliberately mirroring the paper's
  /// implementation, including the reload-reattribution quirk behind the
  /// cnn.com minor breakage (§7.2).
  void record(std::string_view cookie_name, std::string_view creator_domain) {
    store_.insert_or_assign(std::string(cookie_name),
                            std::string(creator_domain));
  }

  /// Creator of `cookie_name`, if tracked.
  std::optional<std::string> creator(std::string_view cookie_name) const {
    const auto it = store_.find(cookie_name);
    if (it == store_.end()) return std::nullopt;
    return it->second;
  }

  /// creator() without the copy: null if untracked, else valid until the
  /// next record/erase/clear.
  const std::string* find_creator(std::string_view cookie_name) const {
    const auto it = store_.find(cookie_name);
    return it == store_.end() ? nullptr : &it->second;
  }

  void erase(std::string_view cookie_name) {
    store_.erase(std::string(cookie_name));
  }

  void clear() { store_.clear(); }
  std::size_t size() const { return store_.size(); }

 private:
  std::map<std::string, std::string, std::less<>> store_;
};

}  // namespace cg::cookieguard
