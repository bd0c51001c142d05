#include "nic/admission.hpp"

#include "common/assert.hpp"

namespace pmx {

std::string to_string(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kTailDrop:
      return "tail-drop";
    case ShedPolicy::kDropNewest:
      return "drop-newest";
    case ShedPolicy::kDropOldest:
      return "drop-oldest";
    case ShedPolicy::kDeadline:
      return "deadline";
    case ShedPolicy::kBackpressure:
      return "backpressure";
  }
  return "unknown";
}

ShedPolicy parse_shed_policy(const std::string& name) {
  if (name == "tail-drop") {
    return ShedPolicy::kTailDrop;
  }
  if (name == "drop-newest") {
    return ShedPolicy::kDropNewest;
  }
  if (name == "drop-oldest") {
    return ShedPolicy::kDropOldest;
  }
  if (name == "deadline") {
    return ShedPolicy::kDeadline;
  }
  if (name == "backpressure") {
    return ShedPolicy::kBackpressure;
  }
  PMX_CHECK(false, ("unknown shed policy: " + name).c_str());
  return ShedPolicy::kTailDrop;
}

}  // namespace pmx
