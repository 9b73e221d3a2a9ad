// RpcClient::call_many — the client half of rpc.batch (the server half is
// Dispatcher::enable_batch). Lives apart from client.cpp because it is pure
// coalescing policy over the public call() path: wire formatting of the
// embedded items, tier folding, and the per-item result fan-out.
#include "rpc/batch.h"

#include "rpc/server.h"  // fault-code <-> StatusCode mapping

namespace gae::rpc {

namespace {

/// Unpacks one {ok, result | code+message} entry of an rpc.batch response.
Result<Value> decode_batch_entry(const Value& entry) {
  if (!entry.is_struct()) {
    return Status(StatusCode::kInternal,
                  "malformed rpc.batch response entry: " + entry.debug_string());
  }
  if (entry.get_bool("ok", false)) {
    return entry.has("result") ? entry.at("result") : Value();
  }
  const int code = static_cast<int>(
      entry.get_int("code", status_to_fault_code(StatusCode::kInternal)));
  return Status(fault_code_to_status(code),
                entry.get_string("message", "batch item failed"));
}

}  // namespace

std::vector<Result<Value>> RpcClient::call_many(const std::vector<BatchItem>& items) {
  return call_many(items, options_.default_call);
}

std::vector<Result<Value>> RpcClient::call_many(const std::vector<BatchItem>& items,
                                                const CallOptions& options) {
  std::vector<Result<Value>> results;
  results.reserve(items.size());
  if (items.empty()) return results;

  const auto item_options = [&](const BatchItem& item) {
    CallOptions o = options;
    o.tier = item.tier;
    return o;
  };

  // A batch of one gains nothing from the envelope — skip it.
  if (items.size() == 1) {
    results.push_back(call(items[0].method, items[0].params, item_options(items[0])));
    return results;
  }

  Array embedded;
  embedded.reserve(items.size());
  Criticality tier = items[0].tier;
  for (const BatchItem& item : items) {
    tier = more_critical(tier, item.tier);
    Struct entry;
    entry["method"] = item.method;
    entry["params"] = Value(item.params);
    embedded.push_back(Value(std::move(entry)));
  }
  CallOptions batch_options = options;
  // The envelope rides at the most critical item's tier: shedding the whole
  // batch because a bulk item rode along would invert the shed order.
  batch_options.tier = tier;

  auto batched = call("rpc.batch", Array{Value(std::move(embedded))}, batch_options);
  if (batched.is_ok()) {
    totals_.batches.inc();
    totals_.batched_items.inc(items.size());
    const Value& body = batched.value();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!body.is_array() || i >= body.as_array().size()) {
        results.push_back(Status(StatusCode::kInternal,
                                 "rpc.batch response lacks entry " + std::to_string(i) +
                                     " for " + items[i].method));
        continue;
      }
      results.push_back(decode_batch_entry(body.as_array()[i]));
    }
    return results;
  }

  if (batched.status().code() == StatusCode::kNotFound) {
    // Old peer without rpc.batch: degrade to one call per item so mixed-
    // version deployments keep working through a rollout.
    for (const BatchItem& item : items) {
      results.push_back(call(item.method, item.params, item_options(item)));
    }
    return results;
  }

  // The batch itself failed (transport, deadline, shed): every item shares
  // that fate — none of them reached a handler.
  for (std::size_t i = 0; i < items.size(); ++i) results.push_back(batched.status());
  return results;
}

}  // namespace gae::rpc
