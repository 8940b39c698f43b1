#include "xml/event_batch.h"

namespace xaos::xml {

void BatchArena::Grow(size_t min_capacity) {
  size_t capacity = capacity_ < 256 ? 256 : 2 * capacity_;
  if (capacity < min_capacity) capacity = min_capacity;
  std::unique_ptr<char[]> grown(new char[capacity]);
  if (size_ > 0) std::memcpy(grown.get(), data_.get(), size_);
  data_ = std::move(grown);
  capacity_ = capacity;
}

void EventBatch::AddStartElement(const QName& name, AttributeSpan attributes) {
  const OpenElement open = OpenStartElement(name.text);
  for (const AttributeView& attr : attributes) {
    AddAttribute(attr.name, attr.value, attr.symbol);
  }
  CloseStartElement(open, name.symbol);
}

void EventBatch::AddSkipSubtree(const SkipReport& report) {
  BatchedEvent event;
  event.kind = BatchedEvent::Kind::kSkipSubtree;
  // SkipReport is a trivially-copyable POD; ship it through the text arena
  // as raw bytes so the record format stays fixed-size.
  event.text_offset = AppendText(std::string_view(
      reinterpret_cast<const char*>(&report), sizeof(report)));
  event.text_size = static_cast<uint32_t>(sizeof(report));
  events_.push_back(event);
}

void EventBatcher::StartDocument() {
  Current()->AddStartDocument();
  PublishIfFull();
}

void EventBatcher::EndDocument() {
  Current()->AddEndDocument();
  PublishCurrent();
}

void EventBatcher::StartElement(const QName& name, AttributeSpan attributes) {
  Current()->AddStartElement(name, attributes);
  PublishIfFull();
}

void EventBatcher::EndElement(std::string_view name) {
  Current()->AddEndElement(name, !lean_payload_);
  PublishIfFull();
}

void EventBatcher::Characters(std::string_view text) {
  Current()->AddCharacters(text, !lean_payload_);
  PublishIfFull();
}

void EventBatcher::SkippedSubtree(const SkipReport& report) {
  Current()->AddSkipSubtree(report);
  PublishIfFull();
}

void EventBatcher::AbortDocument() {
  Current()->MarkAbortsDocument();
  PublishCurrent();
}

void EventBatcher::PublishCurrent() {
  if (current_ == nullptr ||
      (current_->empty() && !current_->aborts_document())) {
    return;
  }
  sink_->PublishBatch(current_);
  current_ = nullptr;
}

}  // namespace xaos::xml
