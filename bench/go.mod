module github.com/mobilebandwidth/swiftest/bench

go 1.24

require github.com/mobilebandwidth/swiftest v0.0.0

replace github.com/mobilebandwidth/swiftest => ../
