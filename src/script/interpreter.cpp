#include "script/interpreter.h"

#include <cstdlib>

#include "crypto/base64.h"
#include "crypto/md5.h"
#include "crypto/sha1.h"
#include "net/query.h"

namespace cg::script {
namespace {

constexpr std::string_view kPastDate = "Thu, 01 Jan 1970 00:00:00 GMT";

const CookiePair* find_cookie(const std::vector<CookiePair>& jar,
                              std::string_view name) {
  for (const auto& c : jar) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

// The targets visible in `jar`, in target order. Overwrite and delete ops
// decide every target through this before their first write, which can
// move the cookies the pairs view.
std::vector<const std::string*> visible_targets(
    const std::vector<CookiePair>& jar,
    const std::vector<std::string>& targets) {
  std::vector<const std::string*> out;
  for (const auto& target : targets) {
    if (find_cookie(jar, target) != nullptr) out.push_back(&target);
  }
  return out;
}

// Destination hosts may use "{site}" for the visited page's host
// (first-party endpoints, e.g. a site's own /api/telemetry).
std::string resolve_host(const std::string& host_template,
                         PageServices& services) {
  const auto pos = host_template.find("{site}");
  if (pos == std::string::npos) return host_template;
  std::string out = host_template;
  out.replace(pos, 6, services.main_document().url().host());
  return out;
}

void exfiltrate_cookies(const ScriptOp& op, const ExecContext& ctx,
                        PageServices& services,
                        const std::vector<CookiePair>& cookies) {
  std::vector<net::QueryParam> params;
  for (const auto& cookie : cookies) {
    const auto segments = extract_identifier_segments(cookie.value);
    std::size_t index = 0;
    for (const auto& segment : segments) {
      std::string key(cookie.name);
      if (index > 0) {
        // Append piecewise: `+= "_" + to_string(...)` trips the GCC 12
        // -Wrestrict false positive (PR 105329) under warnings-as-errors.
        key += '_';
        key += std::to_string(index);
      }
      params.push_back({std::move(key), encode_identifier(segment, op.encoding)});
      ++index;
    }
  }
  if (params.empty()) return;  // nothing harvested — no request
  params.push_back({"t", std::to_string(services.now())});

  net::Url dest = net::Url::must_parse("https://" +
                                       resolve_host(op.dest_host, services) +
                                       (op.dest_path.empty() ? "/collect"
                                                             : op.dest_path));
  std::string query = "?";
  query += net::build_query(params);
  dest = dest.resolve(query);
  services.send_request(ctx, dest);
}

void run_op(const ScriptOp& op, const ExecContext& ctx,
            PageServices& services) {
  switch (op.kind) {
    case OpKind::kSetCookie: {
      if (op.only_if_missing &&
          find_cookie(services.document_cookie_pairs(ctx), op.cookie_name) !=
              nullptr) {
        break;
      }
      const std::string value =
          expand_template(op.value_template, services.rng(), services.now());
      services.document_cookie_write(
          ctx, op.cookie_name + "=" + value + op.attributes);
      break;
    }

    case OpKind::kStoreSetCookie: {
      const std::string value =
          expand_template(op.value_template, services.rng(), services.now());
      services.cookie_store_set(ctx, op.cookie_name, value);
      break;
    }

    case OpKind::kReadCookies:
      services.document_cookie_pairs(ctx);
      break;

    case OpKind::kStoreGetAll:
      services.cookie_store_get_all(ctx, [](std::vector<StoreCookie>) {});
      break;

    case OpKind::kStoreGet:
      services.cookie_store_get(ctx, op.cookie_name,
                                [](std::optional<StoreCookie>) {});
      break;

    case OpKind::kOverwriteCookie: {
      for (const std::string* target : visible_targets(
               services.document_cookie_pairs(ctx), op.target_cookie_names)) {
        const std::string value =
            expand_template(op.value_template, services.rng(), services.now());
        services.document_cookie_write(ctx,
                                       *target + "=" + value + op.attributes);
      }
      break;
    }

    case OpKind::kDeleteCookie: {
      for (const std::string* target : visible_targets(
               services.document_cookie_pairs(ctx), op.target_cookie_names)) {
        services.document_cookie_write(
            ctx, *target + "=; Path=/; Expires=" + std::string(kPastDate));
      }
      break;
    }

    case OpKind::kStoreDeleteCookie:
      services.cookie_store_delete(ctx, op.cookie_name);
      break;

    case OpKind::kExfiltrate: {
      const auto& jar = services.document_cookie_pairs(ctx);
      if (op.exfiltrate_whole_jar) {
        exfiltrate_cookies(op, ctx, services, jar);
        break;
      }
      std::vector<CookiePair> selected;
      for (const auto& target : op.target_cookie_names) {
        if (const auto* c = find_cookie(jar, target)) selected.push_back(*c);
      }
      exfiltrate_cookies(op, ctx, services, selected);
      break;
    }

    case OpKind::kSendBeacon: {
      const net::Url dest = net::Url::must_parse(
          "https://" + resolve_host(op.dest_host, services) + op.dest_path +
          "?t=" + std::to_string(services.now()));
      services.send_request(ctx, dest);
      break;
    }

    case OpKind::kInjectScript:
      services.inject_script(ctx, op.inject_script_id);
      break;

    case OpKind::kModifyDom: {
      auto& document = services.main_document();
      // Find a node created by someone else; fall back to the body.
      webplat::Node* victim = &document.body();
      for (auto* node : document.elements_by_tag(op.dom_tag)) {
        if (node->creator_domain() != ctx.script_domain) {
          victim = node;
          break;
        }
      }
      document.set_text(*victim, "modified", ctx.script_domain);
      break;
    }

    case OpKind::kCreateDomElement: {
      auto& document = services.main_document();
      auto& node = document.create_element(op.dom_tag, ctx.script_domain);
      document.append_child(document.body(), node, ctx.script_domain);
      break;
    }

    case OpKind::kAsync: {
      // Copy the nested program and context into the closure: the op may
      // outlive the catalog reference that produced it.
      std::vector<ScriptOp> nested = op.nested;
      ExecContext nested_ctx = ctx;
      PageServices* svc = &services;
      services.set_timeout(
          ctx, op.delay_ms,
          [nested = std::move(nested), nested_ctx, svc]() {
            run_program(nested, nested_ctx, *svc);
          },
          op.helper_script_url);
      break;
    }
  }
}

}  // namespace

std::string expand_template(std::string_view tpl, Rng& rng, TimeMillis now) {
  std::string out;
  out.reserve(tpl.size() + 16);
  std::size_t i = 0;
  while (i < tpl.size()) {
    if (tpl[i] != '{') {
      out.push_back(tpl[i++]);
      continue;
    }
    const auto close = tpl.find('}', i);
    if (close == std::string_view::npos) {
      out.append(tpl.substr(i));
      break;
    }
    const std::string_view token = tpl.substr(i + 1, close - i - 1);
    if (token == "ts") {
      out += std::to_string(now / 1000);
    } else if (token == "ts_ms") {
      out += std::to_string(now);
    } else if (token.starts_with("rand:")) {
      const int n = std::atoi(std::string(token.substr(5)).c_str());
      out += rng.digits(n > 0 ? static_cast<std::size_t>(n) : 1);
    } else if (token.starts_with("hex:")) {
      const int n = std::atoi(std::string(token.substr(4)).c_str());
      out += rng.hex(n > 0 ? static_cast<std::size_t>(n) : 1);
    } else {
      out.append(tpl.substr(i, close - i + 1));  // unknown: verbatim
    }
    i = close + 1;
  }
  return out;
}

std::vector<CookiePair> parse_cookie_string(std::string_view cookie_string) {
  std::vector<CookiePair> out;
  std::size_t pos = 0;
  while (pos < cookie_string.size()) {
    auto semi = cookie_string.find(';', pos);
    if (semi == std::string_view::npos) semi = cookie_string.size();
    std::string_view pair = cookie_string.substr(pos, semi - pos);
    while (!pair.empty() && pair.front() == ' ') pair.remove_prefix(1);
    if (!pair.empty()) {
      const auto eq = pair.find('=');
      if (eq == std::string_view::npos) {
        out.push_back({pair, {}});
      } else {
        out.push_back({pair.substr(0, eq), pair.substr(eq + 1)});
      }
    }
    pos = semi + 1;
  }
  return out;
}

std::vector<std::string_view> extract_identifier_segments(
    std::string_view value, std::size_t min_len) {
  std::vector<std::string_view> out;
  for_each_identifier_segment(
      value, [&](std::string_view segment) { out.push_back(segment); },
      min_len);
  return out;
}

std::string encode_identifier(std::string_view segment, Encoding encoding) {
  switch (encoding) {
    case Encoding::kRaw:
      return std::string(segment);
    case Encoding::kBase64:
      return crypto::base64_encode(segment);
    case Encoding::kBase64Url:
      return crypto::base64url_encode(segment);
    case Encoding::kMd5:
      return crypto::Md5::hex(segment);
    case Encoding::kSha1:
      return crypto::Sha1::hex(segment);
  }
  return std::string(segment);
}

void run_program(const std::vector<ScriptOp>& ops, const ExecContext& ctx,
                 PageServices& services) {
  for (const auto& op : ops) {
    run_op(op, ctx, services);
  }
}

}  // namespace cg::script
