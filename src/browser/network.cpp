#include "browser/network.h"

#include "net/psl.h"

namespace cg::browser {

void NetworkLayer::register_host(std::string_view host,
                                 ServerHandler handler) {
  hosts_.insert_or_assign(std::string(host), std::move(handler));
}

void NetworkLayer::register_site(std::string_view site,
                                 ServerHandler handler) {
  sites_.insert_or_assign(std::string(site), std::move(handler));
}

net::HttpResponse NetworkLayer::dispatch(
    const net::HttpRequest& request) const {
  if (fault_hook_) {
    const net::TransportVerdict verdict = fault_hook_(request);
    if (clock_ != nullptr && verdict.latency_ms > 0) {
      clock_->advance(verdict.latency_ms);
    }
    if (verdict.error != net::NetError::kOk) {
      net::HttpResponse failed;
      failed.status = 0;
      failed.net_error = verdict.error;
      return failed;
    }
  }

  net::HttpResponse response;
  if (const auto it = hosts_.find(request.url.host()); it != hosts_.end()) {
    response = it->second(request);
  } else if (const auto site_it =
                 sites_.empty() ? sites_.end()
                                : sites_.find(net::etld_plus_one(
                                      request.url.host()));
             site_it != sites_.end()) {
    response = site_it->second(request);
  } else {
    response.status = 200;
  }
  if (response_hook_) response_hook_(request, response);
  return response;
}

}  // namespace cg::browser
