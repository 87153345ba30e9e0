module embellish/bench

go 1.24.0

require embellish v0.0.0

replace embellish => ../
