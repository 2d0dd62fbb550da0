#include "fl/job.h"

namespace flips::fl {

const char* to_string(ClientAlgo algo) {
  switch (algo) {
    case ClientAlgo::kSgd:
      return "sgd";
    case ClientAlgo::kScaffold:
      return "scaffold";
    case ClientAlgo::kFedDyn:
      return "feddyn";
  }
  return "unknown";
}

const char* to_string(FederationMode mode) {
  switch (mode) {
    case FederationMode::kSync:
      return "sync";
    case FederationMode::kAsync:
      return "async";
  }
  return "unknown";
}

}  // namespace flips::fl
