#include "util/fields.hh"

#include <cstdio>

namespace lll::util
{

const JsonValue *
FieldReader::find(const char *name, const FieldOpts &o)
{
    if (policy_ == Policy::Strict) {
        const std::string key = std::string(prefix_) + name;
        const JsonValue *j = obj_.find(key);
        if (!j && error_.ok()) {
            error_ = Status::error(ErrorCode::CorruptData,
                                   "missing field \"%s\"", key.c_str());
        }
        return j;
    }
    const JsonValue *j = obj_.find(name);
    if (!j && o.required)
        fail(name, "missing required field \"%s\"", name);
    if (o.oneOf && oneOfCount_ < oneOfNames_.size()) {
        oneOfPresent_ += j != nullptr;
        oneOfNames_[oneOfCount_++] = name;
    }
    return j;
}

bool
FieldReader::expect(const char *name, const JsonValue &j, Type t,
                    size_t index)
{
    if (j.type == t)
        return true;
    JsonValue want;
    want.type = t;
    if (index != kWhole) {
        fail(name, "\"%s\" entries must be %ss, got %s", name,
             want.typeName(), j.typeName());
    } else {
        fail(name, "field \"%s\" must be %s %s, got %s", name,
             t == Type::Array || t == Type::Object ? "an" : "a",
             want.typeName(), j.typeName());
    }
    return false;
}

void
FieldReader::fail(const char *name, Status s)
{
    if (!error_.ok())
        return;
    if (policy_ == Policy::Request) {
        error_ = std::move(s);
        return;
    }
    // Strict: the spill file is corrupt; name the member as stored.
    error_ = Status::error(ErrorCode::CorruptData,
                           "malformed value for \"%.*s%s\"",
                           static_cast<int>(prefix_.size()),
                           prefix_.data(), name);
}

Status
FieldReader::status() const
{
    if (!error_.ok() || oneOfCount_ == 0 || oneOfPresent_ == 1)
        return error_;
    std::string names;
    for (size_t i = 0; i < oneOfCount_; ++i)
        names += (i ? "\" and \"" : "\"") + std::string(oneOfNames_[i]);
    return Status::error(ErrorCode::InvalidArgument,
                         "%s needs exactly one of %s\"", what_,
                         names.c_str());
}

} // namespace lll::util
