#include "popularity/harvest_stream.hpp"

#include <algorithm>

namespace torsim::popularity {

RequestStream stream_from_fetch_logs(
    const hsdir::DirectoryNetwork& dirnet,
    std::span<const relay::RelayId> attacker_relays) {
  RequestStream stream;
  for (const relay::RelayId id : attacker_relays) {
    const hsdir::DescriptorStore* store = dirnet.find_store(id);
    if (store == nullptr) continue;
    for (const hsdir::FetchRecord& record : store->fetch_log()) {
      DescriptorRequest request;
      request.descriptor_id = record.descriptor_id;
      request.time = record.time;
      stream.requests.push_back(request);
      // From the HSDir's vantage point every request is "real" traffic;
      // resolution later decides which were for published services.
      ++stream.real_requests;
    }
  }
  std::stable_sort(stream.requests.begin(), stream.requests.end(),
                   [](const DescriptorRequest& a, const DescriptorRequest& b) {
                     return a.time < b.time;
                   });
  return stream;
}

}  // namespace torsim::popularity
