#include "export/messages.hpp"

namespace zc::exporter {

Bytes encode_export_message(const ExportMessage& m) {
    return codec::encode_tagged(m, codec::tag_of(m), 256);
}

std::optional<ExportMessage> decode_export_message(BytesView data) noexcept {
    return codec::decode_tagged<ExportMessage>(data);
}

Bytes encode_delete_evidence(const std::vector<DeleteCmd>& deletes) {
    codec::Writer w(128);
    codec::Encoder<codec::Writer>{w}(codec::list<kMaxDeleteEvidence>(deletes));
    return w.take();
}

std::optional<std::vector<DeleteCmd>> decode_delete_evidence(BytesView data) noexcept {
    try {
        codec::Reader r(data);
        std::vector<DeleteCmd> out;
        codec::Decoder{r}(codec::list<kMaxDeleteEvidence>(out));
        r.expect_done();
        return out;
    } catch (const codec::DecodeError&) {
        return std::nullopt;
    }
}

}  // namespace zc::exporter
