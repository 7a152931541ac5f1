#ifndef SES_OBS_HEALTH_H_
#define SES_OBS_HEALTH_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace ses::obs {

/// Callback returning one health component's state as a JSON object string
/// (e.g. `{"stopping":false,"queued_requests":3}`). Called from the metrics
/// server's serving thread on every /healthz scrape, so it must be cheap and
/// thread-safe.
using HealthProvider = std::function<std::string()>;

/// Registers `provider` under `name` in the process-wide health registry;
/// its JSON appears in /healthz under `"components":{"<name>":...}`.
/// Re-registering a name replaces the previous provider.
void RegisterHealthProvider(const std::string& name, HealthProvider provider);

/// Removes a provider. Acts as a barrier: once this returns, the provider is
/// guaranteed not to be mid-invocation, so components MUST unregister before
/// their owner dies and may then destroy captured state safely.
void UnregisterHealthProvider(const std::string& name);

/// Snapshot of every registered component: (name, JSON) pairs sorted by
/// name. Each provider is invoked at call time.
std::vector<std::pair<std::string, std::string>> CollectHealthComponents();

}  // namespace ses::obs

#endif  // SES_OBS_HEALTH_H_
