module rafiki/benchmark

go 1.24

require rafiki v0.0.0

replace rafiki => ../
