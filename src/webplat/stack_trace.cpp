#include "webplat/stack_trace.h"

#include "net/url.h"

namespace cg::webplat {

StackFrame::StackFrame(std::string script_url_in, std::string function_name_in,
                       bool async_in)
    : script_url(std::move(script_url_in)),
      function_name(std::move(function_name_in)),
      async(async_in) {
  if (script_url.empty()) return;
  if (const auto url = net::Url::parse(script_url)) script_origin = url->site();
}

}  // namespace cg::webplat
